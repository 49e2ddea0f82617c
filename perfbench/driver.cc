#include <algorithm>
#include <cmath>
#include <optional>

#include "graph/node.h"
#include "obs/metrics.h"
#include "workload.h"

namespace perfbench {

namespace {

/**
 * Set-ups per untraced run; setup_s is their median. Each set-up rebuilds
 * the workload from nothing and runs its first (cold) op, so a cost moved
 * out of the timed loop into construction (graph compilation, caches,
 * verification) shows. They are spread through the run, one before each
 * of as many equal slices of the timed loop, so their median samples the
 * machine at several moments rather than once.
 */
constexpr int kSetups = 6;

/** Share of --seconds given to each of the untraced and the traced pass
 * of a traced run; the remainder is the probes' budget. */
constexpr double kTracedPassShare = 0.35;
/** Alternating untraced/traced block pairs of a traced run. */
constexpr int kTraceBlocks = 8;

/**
 * The timed loop is cut into windows of consecutive ops lasting at least
 * kWindowS; the end-to-end timings pool the quietest windows (lowest mean
 * op time): a tenth of them, or more until the pool holds kMinQuietOps,
 * so op_ms_p90 has ten samples beyond it. Other tenants of a shared
 * machine only ever slow a run down, in episodes lasting seconds to
 * minutes: on a 4-vCPU VM the median tiny-BERT step flipped between 1.8
 * and 2.9 ms for whole 15 s runs. Cut into 25 s runs, a 5-minute trace of
 * 0.5 s window medians spread (IQR / median) 0.243 when each run was
 * summarised by its median and 0.025 when each pooled its quietest tenth
 * of windows.
 */
constexpr double kWindowS = 0.5;
constexpr double kQuietShare = 0.1;
constexpr size_t kMinQuietOps = 100;

/** Ops of the quiet windows, in run order. */
std::vector<double>
quietOps(const std::vector<double>& ms)
{
    std::vector<std::pair<size_t, size_t>> windows; // [begin, end)
    double elapsed = 0;
    size_t begin = 0;
    for (size_t i = 0; i < ms.size(); ++i) {
        elapsed += ms[i] / 1e3;
        if (elapsed >= kWindowS || i + 1 == ms.size()) {
            windows.emplace_back(begin, i + 1);
            begin = i + 1;
            elapsed = 0;
        }
    }
    const auto mean_ms = [&](const std::pair<size_t, size_t>& w) {
        double sum = 0;
        for (size_t i = w.first; i < w.second; ++i) {
            sum += ms[i];
        }
        return sum / static_cast<double>(w.second - w.first);
    };
    std::stable_sort(windows.begin(), windows.end(),
                     [&](const auto& a, const auto& b) {
                         return mean_ms(a) < mean_ms(b);
                     });
    const size_t share = static_cast<size_t>(
        std::lround(kQuietShare * static_cast<double>(windows.size())));
    size_t keep = 0, ops = 0;
    while (keep < windows.size() &&
           (keep < std::max<size_t>(1, share) || ops < kMinQuietOps)) {
        ops += windows[keep].second - windows[keep].first;
        ++keep;
    }
    windows.resize(keep);
    std::sort(windows.begin(), windows.end());
    std::vector<double> pooled;
    for (const auto& [first, last] : windows) {
        pooled.insert(pooled.end(), ms.begin() + static_cast<long>(first),
                      ms.begin() + static_cast<long>(last));
    }
    return pooled;
}

double
timedSetup(Workload& workload, Report& report)
{
    const int64_t t0 = nowNs();
    workload.setup(report);
    return static_cast<double>(nowNs() - t0) / 1e9;
}

} // namespace

const std::vector<std::pair<const char*, const char*>>&
layerMetricUnits()
{
    static const std::vector<std::pair<const char*, const char*>> units = {
        {"runtime.trainer.step_ms", "ms"},
        {"runtime.autograd.fwd_bwd_ms", "ms"},
        {"runtime.autograd.engine_overhead_ms", "ms"},
        {"runtime.autograd.recomputed_nodes", "count"},
        {"runtime.autograd.stored_activation_mb", "MB"},
        {"nn.interpreter.forward_ms", "ms"},
        {"tensor.ops.kernel_ms", "ms"},
        {"tensor.ops.linear_ms", "ms"},
        {"tensor.ops.matmul_ms", "ms"},
        {"tensor.ops.gelu_ms", "ms"},
        {"tensor.ops.softmax_ms", "ms"},
        {"tensor.ops.permute_ms", "ms"},
        {"tensor.ops.gelu_ns_per_elem", "ns"},
        {"tensor.ops.softmax_ns_per_elem", "ns"},
        {"tensor.ops.linear_gflops", "GFLOP/s"},
        {"support.parallel.linear_speedup_2t", "x"},
        {"tensor.optim.adamw_ms", "ms"},
        {"tensor.alloc.hit_ratio", "ratio"},
        {"tensor.alloc.pool_misses_per_step", "count"},
        {"tensor.alloc.allocated_mb_per_step", "MB"},
        {"tensor.alloc.peak_live_mb", "MB"},
        {"runtime.process_group.collectives_per_step", "count"},
        {"runtime.process_group.wait_ms_per_step", "ms"},
        {"runtime.process_group.copy_ms_per_step", "ms"},
        {"runtime.process_group.allreduce_mb_per_step", "MB"},
        {"runtime.dist_executor.launch_us", "us"},
        {"runtime.checkpoint.write_ms_per_save", "ms"},
        {"runtime.checkpoint.write_mb_per_save", "MB"},
        {"obs.observer_overhead_pct", "%"},
        {"obs.step_report_kb_per_step", "KB"},
        {"obs.run_log_kb_per_step", "KB"},
        {"obs.provenance_records_per_trial", "count"},
        {"models.build_ms", "ms"},
        {"baselines.apply_recipe_ms", "ms"},
        {"analysis.lint_ms", "ms"},
        {"core.pipeline.partition_ms", "ms"},
        {"sim.simulate_ms", "ms"},
        {"tuner.evaluated_ratio", "ratio"},
        {"tuner.optimum_found_ratio", "ratio"},
        {"bench.trace_overhead_pct", "%"},
    };
    return units;
}

double
rowMs(const slapo::obs::OpProfiler& profiler, const std::string& op)
{
    const std::string bwd = op + ".bwd";
    int64_t ns = 0;
    for (const slapo::obs::OpStats& row : profiler.report()) {
        if (row.op == op || row.op == bwd) {
            ns += row.total_ns;
        }
    }
    return static_cast<double>(ns) / 1e6;
}

double
kernelMs(const slapo::obs::OpProfiler& profiler)
{
    // Kernel rows are the ones named after an op kind; engine.overhead,
    // optimizer.step, grad.reduce, executor.* and sync rows are not.
    std::vector<std::string> kinds;
    for (int k = 0; k <= static_cast<int>(slapo::graph::OpKind::Identity);
         ++k) {
        kinds.emplace_back(
            slapo::graph::opKindName(static_cast<slapo::graph::OpKind>(k)));
    }
    double ms = 0;
    for (const std::string& kind : kinds) {
        ms += rowMs(profiler, kind);
    }
    return ms;
}

Report
drive(Workload& workload, const Options& options)
{
    Report report;
    report.note("threads", workload.threadsJson());
    report.note("tokens_per_op", std::to_string(workload.tokensPerOp()));

    if (!options.trace) {
        std::vector<double> setup_s;
        OpLog log;
        for (int i = 0; i < kSetups; ++i) {
            setup_s.push_back(timedSetup(workload, report));
            workload.runFor(options.seconds / kSetups, report, log);
        }
        const std::vector<double> quiet = quietOps(log.ms);
        double quiet_ms = 0;
        for (const double ms : quiet) {
            quiet_ms += ms;
        }
        report.add("ops_per_s",
                   static_cast<double>(quiet.size()) / (quiet_ms / 1e3),
                   "1/s");
        report.add("op_ms_p50", quantile(quiet, 0.5), "ms");
        report.add("op_ms_p90", quantile(quiet, 0.9), "ms");
        report.add("setup_s", median(setup_s), "s");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        report.note("setup_runs", std::to_string(kSetups));
        report.note("op_samples", std::to_string(log.ms.size()));
        report.note("op_samples_quiet", std::to_string(quiet.size()));
        report.note("all_ops_per_s",
                    jsonNumber(static_cast<double>(log.ms.size()) /
                               log.wall_s));
        report.note("all_op_ms_p50", jsonNumber(quantile(log.ms, 0.5)));
        report.note("tokens_per_s",
                    jsonNumber(static_cast<double>(quiet.size() *
                                                   workload.tokensPerOp()) /
                               (quiet_ms / 1e3)));
        report.note("peak_tensor_mb",
                    jsonNumber(static_cast<double>(
                                   slapo::obs::metrics()
                                       .tensor_live_bytes.peak()) /
                               1e6));
        return report;
    }

    timedSetup(workload, report);
    // Untraced and traced blocks alternate, so drift in the machine or in
    // the workload (warm-up, the tuner's rounds) lands on both sides of
    // bench.trace_overhead_pct.
    OpLog untraced, traced;
    slapo::obs::OpProfiler profiler;
    SpanLog spans;
    std::map<std::string, int64_t> delta;
    const double block_s = options.seconds * kTracedPassShare / kTraceBlocks;
    for (int block = 0; block < kTraceBlocks; ++block) {
        workload.runFor(block_s, report, untraced);
        slapo::obs::MetricsDelta window;
        {
            std::optional<slapo::obs::OpProfilerGuard> guard;
            if (workload.usesOpProfiler()) {
                guard.emplace(&profiler);
            }
            setSpanLog(&spans);
            workload.runFor(block_s, report, traced);
            setSpanLog(nullptr);
        }
        for (const auto& [name, value] : window.values()) {
            // Level and high-watermark entries are absolute, not deltas.
            const bool level = name == "tensor.live_bytes" ||
                               name == "tensor.peak_bytes" ||
                               name == "pipeline.peak_queue_depth";
            delta[name] = level ? std::max(delta[name], value)
                                : delta[name] + value;
        }
    }
    const TracedPass pass{profiler, delta, spans,
                          static_cast<int64_t>(traced.ms.size()),
                          options.seconds * (1 - 2 * kTracedPassShare)};
    workload.layerMetrics(pass, report);
    report.add("tensor.alloc.peak_live_mb",
               static_cast<double>(delta["tensor.peak_bytes"]) / 1e6, "MB");
    report.add("bench.trace_overhead_pct",
               (median(quietOps(traced.ms)) / median(quietOps(untraced.ms)) -
                1) * 100,
               "%");
    if (!options.workdir.empty()) {
        spans.writeChromeTrace(options.workdir + "/spans.json");
    }

    // Layers a workload does not exercise report 0, so every traced run
    // prints the full per-layer set; the context names them.
    std::string idle = "[";
    for (const auto& [name, unit] : layerMetricUnits()) {
        const bool seen = std::any_of(
            report.metrics.begin(), report.metrics.end(),
            [&](const Metric& m) { return m.name == name; });
        if (!seen) {
            report.add(name, 0.0, unit);
            idle += (idle.size() > 1 ? "," : "") + jsonString(name);
        }
    }
    report.note("layers_not_exercised", idle + "]");
    report.note("untraced_op_ms_p50", jsonNumber(median(untraced.ms)));
    report.note("traced_op_ms_p50", jsonNumber(median(traced.ms)));
    report.note("untraced_quiet_op_ms_p50",
                jsonNumber(median(quietOps(untraced.ms))));
    report.note("traced_quiet_op_ms_p50",
                jsonNumber(median(quietOps(traced.ms))));
    return report;
}

} // namespace perfbench
