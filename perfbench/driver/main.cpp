// perfbench_driver: runs one named workload of the end-to-end benchmark and
// writes its result record (and, traced, its Chrome trace) to a directory.
//
//   perfbench_driver run --workload fig1_adsl --seed 7 --seconds 10 --trace 0 --out DIR
//   perfbench_driver inputs --workload sweep_mp --seed 7
//
// perfbench/run.py builds and invokes this, folds the trace, checks the
// exact counters across runs and prints the final metrics line.
#include "bench.hpp"

#include <sched.h>
#include <unistd.h>

#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "util/telemetry.hpp"

namespace {

std::string cpu_model() {
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) return line.substr(colon + 2);
        }
    }
    return "unknown";
}

/// Pin the process (and every thread it starts) to the last `n` online
/// CPUs.  The vCPUs of the virtualised 4-core test host differed in speed by
/// up to 1.5x, and fig1_adsl's single thread migrating among them made its
/// run-to-run spread about five times that of pinned runs.  stream_server
/// (server I/O thread, session workers, generators) is pinned to the last
/// three.  Pinning the multi-process sweep did not narrow its spread, so it
/// runs unpinned.  CPU 0 is left to interrupts.
void pin_to_last_cpus(long n) {
    const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
    if (n <= 0 || online <= n) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (long c = online - n; c < online; ++c) CPU_SET(static_cast<int>(c), &set);
    if (::sched_setaffinity(0, sizeof set, &set) != 0) {
        std::cerr << "perfbench_driver: sched_setaffinity failed; running unpinned\n";
    }
}

int usage() {
    std::cerr << "usage: perfbench_driver run --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out DIR\n"
                 "       perfbench_driver inputs --workload NAME --seed N\n"
                 "workloads: fig1_adsl sweep_mp stream_server\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string mode = argv[1];
    pb::options opt;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--seed") {
            opt.seed = std::stoull(val);
        } else if (key == "--seconds") {
            opt.seconds = std::stod(val);
        } else if (key == "--trace") {
            opt.trace = val == "1";
        } else if (key == "--out") {
            opt.out_dir = val;
        } else {
            return usage();
        }
    }

    try {
        if (mode == "inputs") {
            if (opt.workload == "fig1_adsl") {
                pb::print_fig1_inputs(opt.seed, std::cout);
            } else if (opt.workload == "sweep_mp") {
                pb::print_sweep_inputs(opt.seed, std::cout);
            } else if (opt.workload == "stream_server") {
                pb::print_stream_inputs(opt.seed, std::cout);
            } else {
                return usage();
            }
            return 0;
        }
        if (mode != "run" || opt.seconds <= 0.0) return usage();

        pb::record rec;
        const long pinned = opt.workload == "fig1_adsl"       ? 1
                            : opt.workload == "stream_server" ? 3
                                                              : 0;
        pin_to_last_cpus(pinned);
        rec.info["pinned_cpus"] = pinned > 0 ? "last " + std::to_string(pinned) : "none";
        if (opt.trace) pb::spans().enable();
        const auto t0 = pb::steady::now();
        if (opt.workload == "fig1_adsl") {
            pb::run_fig1(opt, rec);
        } else if (opt.workload == "sweep_mp") {
            pb::run_sweep(opt, rec);
        } else if (opt.workload == "stream_server") {
            pb::run_stream(opt, rec);
        } else {
            return usage();
        }
        rec.info["wall_s"] = std::to_string(pb::seconds_since(t0));

        // Peak memory: sweep_mp adds its largest worker (RUSAGE_CHILDREN).
        double rss = pb::peak_rss_mb_self();
        if (opt.workload == "sweep_mp") rss += pb::peak_rss_mb_children();
        rec.set_e2e("peak_rss_mb", rss, "MiB");

        // Host fingerprint (run.py adds the source hash and git sha).
        rec.info["workload"] = opt.workload;
        rec.info["seed"] = std::to_string(opt.seed);
        rec.info["trace"] = opt.trace ? "1" : "0";
        rec.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
        rec.info["nproc_online"] = std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
        rec.info["cpu_model"] = cpu_model();
        rec.info["compiler"] = PB_CXX_COMPILER;
        rec.info["build_type"] = PB_BUILD_TYPE;
        rec.info["telemetry"] = SCA_TELEMETRY_ENABLED ? "on" : "off";

        if (opt.trace) {
            const std::string trace_path = opt.out_dir + "/trace.json";
            pb::spans().write_chrome(trace_path, rec.layer["trace.overhead_frac"].value);
            rec.info["trace_file"] = trace_path;
            rec.info["trace_events"] = std::to_string(pb::spans().size());
        }
        std::ofstream os(opt.out_dir + "/record.json", std::ios::trunc);
        rec.write_json(os);
        os.close();
        if (!os) {
            std::cerr << "perfbench_driver: cannot write " << opt.out_dir << "/record.json\n";
            return 1;
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench_driver: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
