#include "abft.hh"

#include <cmath>

#include "common/logging.hh"
#include "numerics/bfloat16.hh"

namespace prose {

AbftChecker::AbftChecker(AbftOptions options) : options_(options) {}

AbftPanelChecksums
AbftChecker::panelChecksums(AbftPlane b, std::size_t k, std::size_t cols)
{
    // Accumulated in double so checksum rounding stays far below the
    // array's own fp32 rounding.
    AbftPanelChecksums panel;
    panel.colSum.assign(k, 0.0);
    panel.absColSum.assign(k, 0.0);
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float *brow = b.data + kk * b.stride;
        for (std::size_t j = 0; j < cols; ++j) {
            const double v = brow[j];
            panel.colSum[kk] += v;
            panel.absColSum[kk] += std::fabs(v);
        }
    }
    return panel;
}

AbftTileResult
AbftChecker::checkTile(const Matrix &a, const Matrix &b, Matrix &acc)
{
    const std::size_t rows = acc.rows();
    const std::size_t cols = acc.cols();
    const std::size_t k = a.cols();
    PROSE_ASSERT(a.rows() == rows && b.cols() == cols && b.rows() == k,
                 "ABFT operand/accumulator shape mismatch");

    // Checksums run over the bf16-quantized operands the array saw.
    std::vector<float> qa(a.size()), qb(b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        qa[i] = quantizeBf16(a.data()[i]);
    for (std::size_t i = 0; i < b.size(); ++i)
        qb[i] = quantizeBf16(b.data()[i]);
    const AbftPlane pa{ qa.data(), k };
    const AbftPlane pb{ qb.data(), cols };
    const AbftTileResult result =
        checkTile(pa, pb, panelChecksums(pb, k, cols), acc.data(), cols,
                  rows, cols, k);
    for (std::size_t f = 0; f < result.corrected.size(); ++f) {
        const auto &[r, c] = result.corrected[f];
        acc(r, c) = result.repaired[f];
    }
    return result;
}

AbftTileResult
AbftChecker::checkTile(AbftPlane a, AbftPlane b,
                       const AbftPanelChecksums &panel, const float *acc,
                       std::size_t acc_stride, std::size_t rows,
                       std::size_t cols, std::size_t k)
{
    PROSE_ASSERT(panel.colSum.size() == k && panel.absColSum.size() == k,
                 "ABFT panel checksums cover the wrong depth");
    const std::vector<double> &col_sum_b = panel.colSum;
    const std::vector<double> &abs_col_sum_b = panel.absColSum;

    AbftTileResult result;
    ++stats_.tilesChecked;

    // Every sum below adds its terms in the same ascending order as the
    // textbook loop nest; the loops are only interchanged so each plane
    // is read along its rows.
    std::vector<double> row_sum_a(k, 0.0), abs_row_sum_a(k, 0.0);
    for (std::size_t i = 0; i < rows; ++i) {
        const float *arow = a.data + i * a.stride;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const double v = arow[kk];
            row_sum_a[kk] += v;
            abs_row_sum_a[kk] += std::fabs(v);
        }
    }

    // Row residuals: actual row sums of C vs a(r,:) . colsum(B).
    std::vector<double> row_expected(rows, 0.0);
    std::vector<double> row_residual(rows, 0.0), row_mass(rows, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
        const float *arow = a.data + r * a.stride;
        double expected = 0.0, mass = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const double v = arow[kk];
            expected += v * col_sum_b[kk];
            mass += std::fabs(v) * abs_col_sum_b[kk];
        }
        const float *crow = acc + r * acc_stride;
        double actual = 0.0;
        for (std::size_t j = 0; j < cols; ++j)
            actual += crow[j];
        row_expected[r] = expected;
        row_residual[r] = expected - actual;
        row_mass[r] = mass;
        const double thresh = options_.relTolerance * mass;
        if (!(std::fabs(row_residual[r]) <= thresh))
            result.suspectRows.push_back(r);
    }

    // Column residuals: actual column sums vs rowsum(A) . b(:,c).
    std::vector<double> col_expected(cols, 0.0), col_mass(cols, 0.0);
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float *brow = b.data + kk * b.stride;
        for (std::size_t c = 0; c < cols; ++c) {
            const double v = brow[c];
            col_expected[c] += row_sum_a[kk] * v;
            col_mass[c] += abs_row_sum_a[kk] * std::fabs(v);
        }
    }
    std::vector<double> col_actual(cols, 0.0);
    for (std::size_t i = 0; i < rows; ++i) {
        const float *crow = acc + i * acc_stride;
        for (std::size_t c = 0; c < cols; ++c)
            col_actual[c] += crow[c];
    }
    std::vector<double> col_residual(cols, 0.0);
    for (std::size_t c = 0; c < cols; ++c) {
        col_residual[c] = col_expected[c] - col_actual[c];
        const double thresh = options_.relTolerance * col_mass[c];
        if (!(std::fabs(col_residual[c]) <= thresh))
            result.suspectCols.push_back(c);
    }

    result.flagged =
        !result.suspectRows.empty() || !result.suspectCols.empty();
    if (!result.flagged)
        return result;
    ++stats_.tilesFlagged;

    // Locate: a corrupted accumulator leaves the *same* residual in its
    // row and its column, which disambiguates multi-error tiles.
    bool any_unlocated = result.suspectRows.empty();
    std::uint64_t exact = 0, ambiguous = 0;
    for (const std::size_t r : result.suspectRows) {
        std::vector<std::size_t> candidates;
        for (const std::size_t c : result.suspectCols) {
            const double skew =
                std::fabs(row_residual[r] - col_residual[c]);
            const double tol =
                options_.relTolerance * (row_mass[r] + col_mass[c]);
            if (skew <= tol)
                candidates.push_back(c);
        }
        // A NaN/Inf residual never residual-matches; with a single
        // suspect column the assignment is still unambiguous.
        if (candidates.empty() && result.suspectCols.size() == 1)
            candidates = result.suspectCols;

        if (candidates.size() == 1) {
            const std::size_t c = candidates.front();
            result.located.emplace_back(r, c);
            ++exact;
            if (options_.correct) {
                // Rebuild the cell from its row checksum and the
                // healthy cells (robust even when the cell is Inf/NaN).
                const float *crow = acc + r * acc_stride;
                double others = 0.0;
                for (std::size_t j = 0; j < cols; ++j)
                    if (j != c)
                        others += crow[j];
                result.corrected.emplace_back(r, c);
                result.repaired.push_back(
                    static_cast<float>(row_expected[r] - others));
            }
        } else if (!candidates.empty()) {
            for (const std::size_t c : candidates) {
                result.located.emplace_back(r, c);
                ++ambiguous;
            }
        } else if (!result.suspectCols.empty()) {
            for (const std::size_t c : result.suspectCols) {
                result.located.emplace_back(r, c);
                ++ambiguous;
            }
        } else {
            any_unlocated = true;
        }
    }
    if (any_unlocated)
        ++stats_.unlocatedTiles;
    stats_.locatedElements += exact;
    stats_.ambiguousElements += ambiguous;
    stats_.correctedElements += result.corrected.size();
    return result;
}

} // namespace prose
