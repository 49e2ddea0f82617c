/**
 * @file
 * The workload interface and the driver that runs one workload as a
 * closed loop: the next op (optimizer step or tuner trial) starts only
 * after the previous one finished, from this single process.
 *
 * Untraced run (--trace 0): time ops for the requested seconds, with a
 * timed set-up before each sixth of them, and report the end-to-end
 * metrics.
 * Traced run (--trace 1): one set-up, an untraced pass, a traced pass
 * (OpProfiler installed through its public guard, a MetricsDelta window,
 * benchmark spans around each layer call), then the workload's probes;
 * it reports the per-layer metrics and its own overhead.
 */
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/profiler.h"

namespace slapo {
class Tensor;
namespace nn {
class Module;
} // namespace nn
} // namespace slapo

namespace perfbench {

/** Per-op wall times of one closed-loop pass. */
struct OpLog
{
    std::vector<double> ms; ///< one entry per completed op
    double wall_s = 0;      ///< wall time of the passes, summed
};

/** What the traced pass observed, handed to Workload::layerMetrics. */
struct TracedPass
{
    const slapo::obs::OpProfiler& profiler;
    /** obs::metrics() counter deltas over the traced pass. */
    const std::map<std::string, int64_t>& delta;
    const SpanLog& spans;
    int64_t ops = 0;          ///< ops completed in the traced pass
    double probe_seconds = 0; ///< time budget left for probes
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Input tokens one op consumes (0 for tuner trials). */
    virtual int64_t tokensPerOp() const = 0;

    /** Build everything from scratch, including the first (cold) op;
     * run the set-up correctness checks into `report`. */
    virtual void setup(Report& report) = 0;

    /** Closed loop for `seconds`; one check per op into `report`. */
    virtual void runFor(double seconds, Report& report, OpLog& log) = 0;

    /** Per-layer metrics of the traced pass, plus the workload's probes. */
    virtual void layerMetrics(const TracedPass& pass, Report& report) = 0;

    /** Whether the traced pass installs the OpProfiler. A workload that
     * reads no op rows skips it: the simulator's meta-profile runs the
     * interpreter, and recording those nodes would inflate its spans. */
    virtual bool usesOpProfiler() const { return true; }

    /** Kernel threads and ranks the workload runs with (for the stamp). */
    virtual std::string threadsJson() const = 0;
};

std::unique_ptr<Workload> makeWorkload(const Options& options);

/** Run set-up and the untraced or traced passes of `workload`. */
Report drive(Workload& workload, const Options& options);

/** Names and units of every per-layer metric, in BENCHMARK.json order. */
const std::vector<std::pair<const char*, const char*>>& layerMetricUnits();

// --- profiler rows ----------------------------------------------------------

/** Total ms of rows named `op` or `op.bwd`, over all module paths. */
double rowMs(const slapo::obs::OpProfiler& profiler, const std::string& op);
/** Total ms of every row that times a tensor op kernel (fwd + bwd). */
double kernelMs(const slapo::obs::OpProfiler& profiler);

// --- probes (probes.cc) -----------------------------------------------------

/** Median ms of AutogradEngine::run on `model` (fresh engine, warmed). */
double probeFwdBwdMs(slapo::nn::Module& model,
                     const std::vector<slapo::Tensor>& inputs,
                     double seconds);
/** Median ms of an eager Module::call on `model`. */
double probeEagerForwardMs(slapo::nn::Module& model,
                           const std::vector<slapo::Tensor>& inputs,
                           double seconds);
/** Replay ops::gelu / ops::softmax / ops::linear at the given shapes at
 * 1 and 2 kernel threads; adds the tensor.ops / support.parallel rows. */
void probeKernels(int64_t batch, int64_t seq, int64_t hidden, int64_t heads,
                  int64_t intermediate, double seconds, Report& report);
/** Median us of DistExecutor::run with an empty RankFn on 2 ranks. */
double probeDistLaunchUs(double seconds);

} // namespace perfbench
