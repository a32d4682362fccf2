# Checks that each SIMD tier object exports only its entry point.
#
# Every kernel tier translation unit is compiled with its own -m flags.
# Any other external symbol it defines (a weak inline helper such as
# Bfloat16::roundFromFloat or std::min, emitted out of line at -O0) can
# be picked by the linker for a caller built for the baseline ISA, which
# then faults on CPUs without that ISA. So each object may define
# exactly one external symbol: its KernelSet factory, or the AVX512-BF16
# quantize row.
#
# Usage:
#   cmake -DNM=<nm> -DOBJECTS=<obj>|<obj>|... -P kernel_tier_symbols.cmake
# OBJECTS is every object of prose_numerics ('|'-separated); the tier
# objects are picked out by name.

if(NOT NM OR NOT OBJECTS)
    message(FATAL_ERROR "usage: cmake -DNM=<nm> -DOBJECTS=<a|b|...> -P "
                        "kernel_tier_symbols.cmake")
endif()

# Object basename stem -> the one external symbol it may define.
set(_allowed_kernels_avx2 "prose::kernels::avx2KernelSet()")
set(_allowed_kernels_avx512 "prose::kernels::avx512KernelSet()")
set(_allowed_kernels_avx512bf16
    "prose::kernels::quantizeBitsRowAvx512Bf16(unsigned short*, float const*, unsigned long)")

string(REPLACE "|" ";" _objects "${OBJECTS}")
set(_checked 0)
set(_failed FALSE)
foreach(_object IN LISTS _objects)
    get_filename_component(_name "${_object}" NAME)
    if(NOT _name MATCHES "^(kernels_avx2|kernels_avx512|kernels_avx512bf16)\\.cc\\.o(bj)?$")
        continue()
    endif()
    set(_stem "${CMAKE_MATCH_1}")
    execute_process(
        COMMAND "${NM}" -C --defined-only "${_object}"
        OUTPUT_VARIABLE _symbols
        RESULT_VARIABLE _status)
    if(NOT _status EQUAL 0)
        message(FATAL_ERROR "${NM} failed on ${_object}")
    endif()
    math(EXPR _checked "${_checked} + 1")
    string(REPLACE "\n" ";" _lines "${_symbols}")
    foreach(_line IN LISTS _lines)
        # "<address> <type> <name>"; upper-case types (and GNU unique
        # 'u') are external, weak 'W'/'V' included.
        if(NOT _line MATCHES "^[0-9a-fA-F]* *([A-Zu]) (.*)$")
            continue()
        endif()
        set(_type "${CMAKE_MATCH_1}")
        set(_symbol "${CMAKE_MATCH_2}")
        # DW.ref.__gxx_personality_v0 is the weak, hidden pointer to the
        # C++ EH personality routine (unwind data, no code); coverage
        # builds emit it.
        if(_symbol MATCHES "^DW\\.ref\\.")
            continue()
        endif()
        if(NOT _symbol STREQUAL "${_allowed_${_stem}}")
            message(SEND_ERROR
                "${_name} defines external symbol '${_symbol}' "
                "(type ${_type}); only '${_allowed_${_stem}}' "
                "may leave a tier object")
            set(_failed TRUE)
        endif()
    endforeach()
endforeach()

if(_checked EQUAL 0)
    message(FATAL_ERROR "no SIMD tier objects among: ${OBJECTS}")
endif()
if(_failed)
    message(FATAL_ERROR "tier objects export stray symbols")
endif()
message(STATUS "${_checked} tier objects export only their entry points")
