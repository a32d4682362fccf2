/**
 * @file
 * embed: proteome embedding through the host Protein-BERT-base. Each
 * request is one length-bucketed batch: tokenize -> forward(Bf16Lut,
 * with op trace) -> DataflowBuilder::build -> PerfSim::run on the
 * BestPerf configuration. numerics/model do nearly all the work; trace
 * and accel are recorded to show they are off the critical path.
 */

#include <algorithm>
#include <cmath>
#include <numeric>

#include "accel/batcher.hh"
#include "accel/perf_sim.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "harness.hh"
#include "model/bert_model.hh"
#include "model/tokenizer.hh"
#include "protein/proteome.hh"
#include "trace/dataflow.hh"

namespace perfbench {
namespace {

using namespace prose;

/** Fixed weights: the seed varies the proteome, not the model. */
constexpr std::uint64_t kWeightSeed = 20220228;
/** Proteins synthesized per seed; the round takes quantiles of them. */
constexpr std::size_t kPoolProteins = 16384;
/**
 * Proteins in one round. They sit at the (i + 1/4)/8 quantiles of the
 * seeded length sample (about 119, 190, 240, 290, 345, 412, 506 and a
 * truncated 510 residues), so every seed sees the same log-normal shape
 * and the metrics compare across seeds. Each quantile lies at least 5%
 * from a bucket edge, several standard errors of a 16384-protein
 * sample, so no seed moves a protein to another bucket.
 */
constexpr std::size_t kRoundProteins = 8;
/** Padded tokens per batch: 1x512, 2x256, 4x128 or 8x64. */
constexpr std::uint64_t kTokenBudget = 512;
const std::vector<std::uint64_t> kBuckets{ 64, 128, 256, 512 };

struct Batch
{
    std::uint64_t padded = 0;
    std::vector<std::size_t> proteins; ///< indices into the round
    std::uint64_t realTokens = 0;      ///< incl. CLS/SEP, after truncation
    std::uint64_t residues = 0;        ///< residues embedded
};

class EmbedWorkload : public Workload
{
  public:
    const char *workUnit() const override { return "residues"; }
    int setupRepeats() const override { return 3; }
    std::size_t roundSize() const override { return batches_.size(); }

    void setUp(std::uint64_t seed) override
    {
        model_.reset(); // one model alive at a time keeps peak RSS honest
        model_ = std::make_unique<BertModel>(BertConfig::proteinBertBase(),
                                             kWeightSeed);

        Rng rng(seed);
        const std::vector<FastaRecord> pool =
            synthesizeProteome(rng, kPoolProteins, ProteomeSpec{});
        std::vector<std::size_t> byLength(pool.size());
        std::iota(byLength.begin(), byLength.end(), 0);
        std::stable_sort(byLength.begin(), byLength.end(),
                         [&](std::size_t a, std::size_t b) {
                             return pool[a].sequence.size() <
                                    pool[b].sequence.size();
                         });
        proteins_.clear();
        for (std::size_t i = 0; i < kRoundProteins; ++i)
            proteins_.push_back(
                pool[byLength[(4 * i + 1) * kPoolProteins /
                              (4 * kRoundProteins)]]
                    .sequence);

        // planBatches per bucket, so each bucket gets the batch size
        // that fills the token budget.
        batches_.clear();
        for (std::uint64_t bucket : kBuckets) {
            std::vector<std::size_t> members, lengths;
            for (std::size_t p = 0; p < proteins_.size(); ++p) {
                if (bucketForTokens(proteins_[p].size() + 2, kBuckets) ==
                    bucket) {
                    members.push_back(p);
                    lengths.push_back(proteins_[p].size());
                }
            }
            if (members.empty())
                continue;
            BatcherSpec spec;
            spec.buckets = kBuckets;
            spec.maxBatch = kTokenBudget / bucket;
            std::size_t next = 0;
            for (const LengthBatch &lb : planBatches(lengths, spec).batches) {
                Batch batch;
                batch.padded = lb.paddedLength;
                batch.realTokens = lb.realTokens;
                for (std::uint64_t s = 0; s < lb.sequences; ++s) {
                    const std::size_t p = members[next++];
                    batch.proteins.push_back(p);
                    batch.residues += std::min<std::uint64_t>(
                        proteins_[p].size(), bucket - 2);
                }
                batches_.push_back(std::move(batch));
            }
        }

        // The deep check re-runs the cheapest batch serially.
        sampled_ = static_cast<std::size_t>(
            std::min_element(batches_.begin(), batches_.end(),
                             [](const Batch &a, const Batch &b) {
                                 return a.padded * a.proteins.size() <
                                        b.padded * b.proteins.size();
                             }) -
            batches_.begin());
        haveSample_ = false;

        // Warm-up: pool spin-up, arena first touch, kernel dispatch.
        model_->forward({ tokenizer_.encode(proteins_.front().substr(0, 30),
                                            32) },
                        NumericsMode::Bf16Lut, nullptr);

        tracedRequests_ = tracedPadded_ = tracedReal_ = tracedTasks_ = 0;
    }

    double run(std::size_t index, Tracer *tracer) override
    {
        const Batch &batch = batches_[index];
        std::vector<std::vector<std::uint32_t>> tokens;
        {
            ScopedSpan span(tracer, "model.tokenize");
            for (std::size_t p : batch.proteins)
                tokens.push_back(
                    tokenizer_.encode(proteins_[p], batch.padded));
        }
        OpTrace trace;
        {
            ScopedSpan span(tracer, "model.forward");
            last_ = model_->forward(tokens, NumericsMode::Bf16Lut, &trace);
        }
        {
            ScopedSpan span(tracer, "trace.build");
            lastTasks_ = DataflowBuilder{}.build(trace).size();
        }
        {
            ScopedSpan span(tracer, "accel.perfsim");
            lastMakespan_ =
                PerfSim(ProseConfig::bestPerf())
                    .run(model_->config().shape(batch.proteins.size(),
                                                batch.padded))
                    .makespan;
        }
        lastIndex_ = index;
        if (index == sampled_ && !haveSample_) {
            sample_ = last_;
            haveSample_ = true;
        }
        if (tracer) {
            ++tracedRequests_;
            tracedPadded_ += batch.padded * batch.proteins.size();
            tracedReal_ += batch.realTokens;
            tracedTasks_ += lastTasks_;
        }
        return static_cast<double>(batch.residues);
    }

    bool verify(std::string &why) override
    {
        const Batch &batch = batches_[lastIndex_];
        const std::size_t hidden = model_->config().hidden;
        if (last_.pooled.rows() != batch.proteins.size() ||
            last_.pooled.cols() != hidden ||
            last_.hidden.rows() != batch.proteins.size() * batch.padded) {
            why = "embedding has the wrong shape";
            return false;
        }
        const float *p = last_.pooled.data();
        if (!std::all_of(p, p + last_.pooled.rows() * hidden,
                         [](float v) { return std::isfinite(v); })) {
            why = "non-finite pooled embedding";
            return false;
        }
        if (lastTasks_ == 0 || !(lastMakespan_ > 0.0)) {
            why = "empty dataflow schedule";
            return false;
        }
        return true;
    }

    std::size_t deepChecks(std::uint64_t,
                           std::vector<std::string> &failures) override
    {
        if (!haveSample_)
            run(sampled_, nullptr);
        BertModel::Output serial;
        {
            ThreadPool::SerialGuard guard;
            run(sampled_, nullptr);
            serial = last_;
        }
        if (!bitIdentical(serial.pooled, sample_.pooled) ||
            !bitIdentical(serial.hidden, sample_.hidden))
            failures.push_back("batch " + std::to_string(sampled_) +
                               ": serial re-run is not bit-identical");
        return 1;
    }

    void fillLedger(Ledger &ledger) override
    {
        std::uint64_t real = 0, padded = 0;
        for (const Batch &batch : batches_) {
            const std::uint64_t n = batch.proteins.size();
            const SimReport report =
                PerfSim(ProseConfig::bestPerf())
                    .run(model_->config().shape(n, batch.padded));
            ledger.add("embed.bucket" + std::to_string(batch.padded) +
                           "_b" + std::to_string(n) + ".inferences_per_s",
                       report.inferencesPerSecond());
            real += batch.realTokens;
            padded += batch.padded * n;
        }
        ledger.add("embed.round.batches",
                   static_cast<double>(batches_.size()));
        ledger.add("embed.round.real_tokens", static_cast<double>(real));
        ledger.add("embed.round.padded_tokens", static_cast<double>(padded));
    }

    void layerMetrics(const Tracer &tracer, LayerMetrics &out) override
    {
        const double requests = static_cast<double>(tracedRequests_);
        out["model.forward_ms"] =
            median(tracer.selfTimes("model.forward")) / 1e6;
        out["model.forward_ns_per_token"] =
            tracer.totalSelfNs("model.forward") /
            static_cast<double>(tracedPadded_);
        out["model.pad_waste_ratio"] =
            static_cast<double>(tracedPadded_) /
            static_cast<double>(tracedReal_);
        out["model.tokenize_us"] =
            median(tracer.selfTimes("model.tokenize")) / 1e3;
        out["trace.build_us"] = median(tracer.selfTimes("trace.build")) / 1e3;
        out["trace.tasks_per_request"] =
            static_cast<double>(tracedTasks_) / requests;
        out["accel.batch_perfsim_us"] =
            median(tracer.selfTimes("accel.perfsim")) / 1e3;
    }

  private:
    std::unique_ptr<BertModel> model_;
    AminoTokenizer tokenizer_;
    std::vector<std::string> proteins_;
    std::vector<Batch> batches_;

    BertModel::Output last_;
    std::size_t lastIndex_ = 0;
    std::size_t lastTasks_ = 0;
    double lastMakespan_ = 0.0;

    std::size_t sampled_ = 0;
    bool haveSample_ = false;
    BertModel::Output sample_;

    std::uint64_t tracedRequests_ = 0;
    std::uint64_t tracedPadded_ = 0;
    std::uint64_t tracedReal_ = 0;
    std::uint64_t tracedTasks_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeEmbedWorkload()
{
    return std::make_unique<EmbedWorkload>();
}

} // namespace perfbench
