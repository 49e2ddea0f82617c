/**
 * @file
 * slapo_perfbench: runs one benchmark workload and prints a context
 * line and then the result as the last line of standard output.
 *
 *   slapo_perfbench --workload <name> --seed <n> --seconds <s>
 *                   --trace <0|1> [--workdir <dir>]
 *
 * perfbench/run.py builds this binary, stamps the machine and build
 * context around it, and checks the metric set against BENCHMARK.json.
 */
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "workload.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int
usage(const char* why)
{
    std::fprintf(stderr,
                 "slapo_perfbench: %s\nusage: slapo_perfbench --workload "
                 "<name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--workdir <dir>]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::Options options;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (key == "--workload") {
                options.workload = value;
            } else if (key == "--seed") {
                options.seed = std::stoull(value);
            } else if (key == "--seconds") {
                options.seconds = std::stod(value);
            } else if (key == "--trace") {
                options.trace = value == "1";
            } else if (key == "--workdir") {
                options.workdir = value;
            } else {
                return usage(("unknown option " + key).c_str());
            }
        } catch (const std::exception&) {
            return usage(("bad value for " + key).c_str());
        }
    }
    if (argc % 2 != 1) {
        return usage("options take one value each");
    }
    if (!(options.seconds > 0)) {
        return usage("--seconds must be positive");
    }
    auto workload = perfbench::makeWorkload(options);
    if (!workload) {
        return usage(("unknown workload '" + options.workload + "'").c_str());
    }

    perfbench::Report report;
    try {
        report = perfbench::drive(*workload, options);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "slapo_perfbench: %s\n", e.what());
        return 1;
    }

    std::string context = "{\"compiler\":" +
                          perfbench::jsonString(PERFBENCH_COMPILER) +
                          ",\"build_type\":" +
                          perfbench::jsonString(PERFBENCH_BUILD_TYPE);
    for (const auto& [key, value] : report.context) {
        context += "," + perfbench::jsonString(key) + ":" + value;
    }
    std::cout << "context " << context << "}\n";

    std::string metrics;
    for (const perfbench::Metric& m : report.metrics) {
        metrics += (metrics.empty() ? "" : ",") + perfbench::jsonString(m.name) +
                   ":{\"value\":" + perfbench::jsonNumber(m.value) +
                   ",\"unit\":" + perfbench::jsonString(m.unit) + "}";
    }
    std::cout << "{\"correct\":" << (report.failed == 0 ? "true" : "false")
              << ",\"attempted\":" << report.attempted
              << ",\"failed\":" << report.failed << ",\"metrics\":{"
              << metrics << "}}" << std::endl;
    return 0;
}
