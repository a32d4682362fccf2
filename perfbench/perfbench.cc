/**
 * @file
 * prose_perfbench: the end-to-end benchmark. One process runs one
 * workload (embed, fsim, serve or dse) from one client thread in a
 * closed loop for whole rounds of requests until a number of host
 * seconds is spent, checks every output, and prints, as its last stdout
 * line, one JSON object:
 *
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 *
 * Untraced (--trace 0) the metrics are the end-to-end ones: setup_s,
 * peak_rss_mb, throughput_per_s and request_p50_ms. Traced (--trace 1)
 * half the time runs untraced and half traced; the metrics are the
 * per-layer ones (from span self times) plus the tracing overhead, and
 * the spans are written as Chrome Trace Event JSON.
 *
 * Earlier lines carry the host fingerprint, the modeled-statistics
 * ledger and its digest, the latency tail and any failure reasons.
 *
 * Usage: prose_perfbench --workload W --seed N --seconds S --trace 0|1
 *                        [--trace-out PATH] [--git-sha SHA]
 */

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "harness.hh"
#include "numerics/kernels/kernel_dispatch.hh"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
    std::string gitSha = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "prose_perfbench: " << why
              << "\nusage: prose_perfbench --workload embed|fsim|serve|dse"
                 " --seed N --seconds S --trace 0|1 [--trace-out PATH]"
                 " [--git-sha SHA]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (flag == "--trace-out")
                args.traceOut = value;
            else if (flag == "--git-sha")
                args.gitSha = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::exception &) {
            usage("bad value \"" + value + "\" for " + flag);
        }
    }
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
hostJson(const Args &args)
{
    using namespace prose::kernels;
    std::string simd = toString(activeSimdTier());
    if (activeSimdTier() == SimdTier::Avx512 && avx512Bf16InUse())
        simd += "+bf16";
    return std::string("{\"cpu\":") + quote(cpuModel()) +
           ",\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\"pool_lanes\":" +
           std::to_string(prose::ThreadPool::global().parallelism()) +
           ",\"simd\":" + quote(simd) + ",\"compiler\":" +
           quote(PERFBENCH_COMPILER) + ",\"flags\":" +
           quote(PERFBENCH_CXX_FLAGS) + ",\"build_type\":" +
           quote(PERFBENCH_BUILD_TYPE) + ",\"git_sha\":" +
           quote(args.gitSha) + "}";
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "embed")
        return makeEmbedWorkload();
    if (name == "fsim")
        return makeFsimWorkload();
    if (name == "serve")
        return makeServeWorkload();
    if (name == "dse")
        return makeDseWorkload();
    usage("unknown workload \"" + name + "\"");
}

/** The items separated by `sep`: the body of a JSON array or object. */
std::string
joined(const std::vector<std::string> &items, const char *sep = ",")
{
    std::string out;
    for (const std::string &item : items) {
        if (!out.empty())
            out += sep;
        out += item;
    }
    return out;
}

/** What one pass of the closed loop measured. */
struct LoopResult
{
    std::vector<double> requestMs; ///< successful requests only
    std::size_t rounds = 0;
    double work = 0.0;
    double busySeconds = 0.0; ///< summed request time, failures too
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * Closed loop: the next request starts when the previous one returns.
 * Whole rounds run until `seconds` of request time is spent.
 */
LoopResult
runLoop(Workload &workload, double seconds, Tracer *tracer,
        std::vector<std::string> &failures)
{
    LoopResult result;
    const std::size_t round = workload.roundSize();
    for (std::size_t i = 0;; ++i) {
        if (tracer)
            tracer->setRequest(i);
        double work = 0.0;
        bool ok = true;
        std::string why;
        const Clock::time_point start = Clock::now();
        try {
            prose::ScopedFatalThrow throws;
            ScopedSpan span(tracer, "request");
            work = workload.run(i % round, tracer);
        } catch (const std::exception &e) {
            ok = false;
            why = e.what();
        }
        const double elapsed = secondsSince(start);
        if (ok)
            ok = workload.verify(why);
        ++result.attempted;
        result.busySeconds += elapsed;
        if (ok) {
            result.work += work;
            result.requestMs.push_back(elapsed * 1e3);
        } else {
            ++result.failed;
            failures.push_back("request " + std::to_string(i) + ": " + why);
        }
        if ((i + 1) % round == 0) {
            ++result.rounds;
            if (result.busySeconds >= seconds)
                break;
        }
    }
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::unique_ptr<Workload> workload = makeWorkload(args.workload);
    prose::setQuiet(true);

    std::vector<double> setups;
    for (int i = 0; i < workload->setupRepeats(); ++i) {
        const Clock::time_point start = Clock::now();
        workload->setUp(args.seed);
        setups.push_back(secondsSince(start));
    }

    std::vector<std::string> failures;
    LoopResult loop;
    LayerMetrics layers;
    std::string traceFile;
    if (!args.trace) {
        loop = runLoop(*workload, args.seconds, nullptr, failures);
    } else {
        // Same loop twice, untraced then traced, so the cost of the
        // spans shows as the ratio of host seconds per unit of work.
        const LoopResult plain =
            runLoop(*workload, args.seconds / 2, nullptr, failures);
        Tracer tracer;
        loop = runLoop(*workload, args.seconds / 2, &tracer, failures);
        tracer.setRequest(loop.attempted);
        workload->traceExtras(tracer);
        loop.attempted += plain.attempted;
        loop.failed += plain.failed;
        workload->layerMetrics(tracer, layers);
        layers["bench.trace_overhead_ratio"] =
            (loop.busySeconds / loop.work) / (plain.busySeconds / plain.work);
        if (!args.traceOut.empty()) {
            traceFile = args.traceOut;
            if (!tracer.writeChromeTrace(traceFile)) {
                std::cerr << "prose_perfbench: cannot write " << traceFile
                          << "\n";
                return 1;
            }
        }
    }

    const std::size_t checks = workload->deepChecks(args.seed, failures);
    const std::size_t failedChecks = failures.size() - loop.failed;
    loop.attempted += checks;
    loop.failed += failedChecks;

    Ledger ledger;
    workload->fillLedger(ledger);

    const double tailP = tailPercentile(loop.requestMs.size());
    std::cout << "host: " << hostJson(args) << "\n";
    std::cout << "ledger: " << ledger.json() << "\n";
    std::cout << "ledger_digest: " << ledger.digest() << "\n";
    std::vector<std::string> failureList, setupList;
    for (std::size_t i = 0; i < failures.size() && i < 20; ++i)
        failureList.push_back(quote(failures[i]));
    for (double s : setups)
        setupList.push_back(fmt(s));
    std::cout << "info: {\"workload\":" << quote(args.workload)
              << ",\"seed\":" << args.seed << ",\"traced\":"
              << (args.trace ? "true" : "false") << ",\"work_unit\":"
              << quote(workload->workUnit()) << ",\"requests\":"
              << loop.requestMs.size() << ",\"rounds\":"
              << loop.rounds << ",\"request_tail_percentile\":"
              << (tailP > 0 ? fmt(tailP) : "null")
              << ",\"request_tail_ms\":"
              << (tailP > 0 ? fmt(percentileOf(loop.requestMs, tailP))
                            : "null")
              << ",\"setup_samples_s\":[" << joined(setupList) << "]"
              << ",\"failed_ratio\":"
              << fmt(static_cast<double>(loop.failed) /
                     static_cast<double>(loop.attempted))
              << ",\"trace_file\":"
              << (traceFile.empty() ? "null" : quote(traceFile))
              << ",\"failures\":[" << joined(failureList) << "]}\n";

    std::vector<std::string> metrics;
    auto add = [&](const std::string &name, double value,
                   const std::string &unit) {
        metrics.push_back(quote(name) + ": {\"value\": " + fmt(value) +
                          ", \"unit\": " + quote(unit) + "}");
    };
    if (!args.trace) {
        add("setup_s", median(setups), "s");
        add("peak_rss_mb", static_cast<double>(peakRssBytes()) / 1048576.0,
            "MB");
        add("throughput_per_s", loop.work / loop.busySeconds, "1/s");
        add("request_p50_ms", median(loop.requestMs), "ms");
    } else {
        for (const auto &[name, unit] : layerMetricNames()) {
            const auto it = layers.find(name);
            add(name, it == layers.end() ? 0.0 : it->second, unit);
        }
    }
    std::cout << "{\"correct\": " << (loop.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << loop.attempted
              << ", \"failed\": " << loop.failed << ", \"metrics\": {"
              << joined(metrics, ", ") << "}}" << std::endl;
    return 0;
}
