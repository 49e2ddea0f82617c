/**
 * @file
 * Probes: calls into one layer's public functions, timed from outside,
 * that give a per-layer signal independent of the training step.
 */
#include "nn/layers.h"
#include "runtime/autograd.h"
#include "runtime/dist_executor.h"
#include "support/parallel.h"
#include "tensor/ops.h"
#include "workload.h"

namespace perfbench {

using namespace slapo;

namespace {

/** Call `fn` until `seconds` pass (at least `min_reps` times); returns the
 * median wall time per call in ns. */
template <typename Fn>
double
medianNs(double seconds, int min_reps, Fn&& fn)
{
    std::vector<double> ns;
    const int64_t deadline = nowNs() + static_cast<int64_t>(seconds * 1e9);
    while (static_cast<int>(ns.size()) < min_reps || nowNs() < deadline) {
        const int64_t t0 = nowNs();
        fn();
        ns.push_back(static_cast<double>(nowNs() - t0));
    }
    return median(ns);
}

} // namespace

double
probeFwdBwdMs(nn::Module& model, const std::vector<Tensor>& inputs,
              double seconds)
{
    runtime::AutogradEngine engine;
    engine.run(model, inputs); // traces and caches the graph
    return medianNs(seconds, 5, [&] { engine.run(model, inputs); }) / 1e6;
}

double
probeEagerForwardMs(nn::Module& model, const std::vector<Tensor>& inputs,
                    double seconds)
{
    std::vector<nn::Value> values;
    for (const Tensor& t : inputs) {
        values.emplace_back(t);
    }
    model.call(values);
    return medianNs(seconds, 5, [&] { model.call(values); }) / 1e6;
}

void
probeKernels(int64_t batch, int64_t seq, int64_t hidden, int64_t heads,
             int64_t intermediate, double seconds, Report& report)
{
    // The shapes of the scheduled BERT's FFN (bias+GELU input, up
    // projection) and of its attention scores.
    const Tensor ffn = Tensor::uniform({batch, seq, intermediate}, 1.0f, 11);
    const Tensor scores = Tensor::uniform({batch, heads, seq, seq}, 1.0f, 12);
    const Tensor x = Tensor::uniform({batch, seq, hidden}, 1.0f, 13);
    const Tensor weight = Tensor::uniform({intermediate, hidden}, 0.1f, 14);
    const Tensor bias = Tensor::uniform({intermediate}, 0.1f, 15);
    const double each = seconds / 6;
    double gelu_ns[2], softmax_ns[2], linear_ns[2];
    for (int threads = 1; threads <= 2; ++threads) {
        setNumThreads(threads);
        gelu_ns[threads - 1] = medianNs(each, 5, [&] { ops::gelu(ffn); });
        softmax_ns[threads - 1] =
            medianNs(each, 5, [&] { ops::softmax(scores); });
        linear_ns[threads - 1] =
            medianNs(each, 5, [&] { ops::linear(x, weight, bias); });
    }
    const double flops = 2.0 * static_cast<double>(batch * seq * hidden *
                                                   intermediate);
    report.add("tensor.ops.gelu_ns_per_elem",
               gelu_ns[1] / static_cast<double>(ffn.numel()), "ns");
    report.add("tensor.ops.softmax_ns_per_elem",
               softmax_ns[1] / static_cast<double>(scores.numel()), "ns");
    report.add("tensor.ops.linear_gflops", flops / linear_ns[1], "GFLOP/s");
    report.add("support.parallel.linear_speedup_2t",
               linear_ns[0] / linear_ns[1], "x");
}

double
probeDistLaunchUs(double seconds)
{
    runtime::DistExecutor executor(2);
    nn::Linear tiny(1, 1);
    tiny.initializeParams(1);
    const auto replicas = executor.replicate(tiny);
    const runtime::DistExecutor::RankFn noop =
        [](int, nn::Module&, runtime::ProcessGroup&) {};
    return medianNs(seconds, 20, [&] { executor.run(replicas, noop); }) /
           1e3;
}

} // namespace perfbench
