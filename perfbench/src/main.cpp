// geochoice_perfbench — the repository benchmark's measuring program.
//
//   geochoice_perfbench --workload NAME --seed N --seconds S --trace 0|1
//   geochoice_perfbench --self-test
//   geochoice_perfbench --list-metrics
//
// A run prints a human-readable table (every metric with its unit and
// sample count), one {"record": ...} line with the machine fingerprint and
// the code paths that ran, and as its last line the result object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones; a per-layer metric of
// a layer the workload never crosses reads 0. The exit code is nonzero
// when any output check failed.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"ops_per_sec", "1/s", "higher"},
    {"cpu_ns_per_op", "ns", "lower"},
    {"peak_rss_mb", "MiB", "lower"},
};

constexpr MetricSpec kPerLayer[] = {
    // End-to-end figures of one workload each, timed with tracing off.
    {"ring_balls_per_sec", "1/s", "higher"},
    {"torus_balls_per_sec", "1/s", "higher"},
    {"wire_ops_per_sec", "1/s", "higher"},
    {"kv_ops_per_sec", "1/s", "higher"},
    {"insert_p50_us", "us", "lower"},
    {"insert_p99_us", "us", "lower"},
    {"get_p50_us", "us", "lower"},
    {"get_p99_us", "us", "lower"},
    {"failed_op_frac", "frac", "lower"},
    // spaces
    {"spaces.build_ns_per_server", "ns", "lower"},
    {"spaces.ring_build_ns_per_server", "ns", "lower"},
    {"spaces.torus_build_ns_per_server", "ns", "lower"},
    {"spaces.build_share", "frac", "lower"},
    // rng / core
    {"rng.sample_ns_per_ball", "ns", "lower"},
    {"core.place_ns_per_ball", "ns", "lower"},
    {"core.place_share", "frac", "lower"},
    // geometry
    {"geometry.resolve_ns_per_ball", "ns", "lower"},
    {"geometry.ring_resolve_ns_per_ball", "ns", "lower"},
    {"geometry.torus_resolve_ns_per_ball", "ns", "lower"},
    // parallel
    {"parallel.cpu_per_wall", "ratio", "higher"},
    {"parallel.trial_busy_frac", "frac", "higher"},
    {"parallel.windows", "count", "lower"},
    {"parallel.crew_windows", "count", "higher"},
    {"parallel.inline_windows", "count", "lower"},
    {"parallel.skipped_windows", "count", "lower"},
    // sim: path record
    {"sim.engine_trials.scalar", "count", "higher"},
    {"sim.engine_trials.batched", "count", "higher"},
    {"sim.engine_trials.sharded", "count", "higher"},
    {"sim.wire_workers", "count", "higher"},
    {"sim.uncovered_frac", "frac", "lower"},
    // dht
    {"dht.ring_build_s", "s", "lower"},
    {"dht.next_hop_ns", "ns", "lower"},
    // net (DES)
    {"net.events_per_op", "count", "lower"},
    {"net.links_per_insert", "count", "lower"},
    {"net.stale_frac", "frac", "lower"},
    {"net.event_queue.ns_per_event", "ns", "lower"},
    {"net.latency.ns_per_draw", "ns", "lower"},
    {"net.sequential_ns_per_event", "ns", "lower"},
    {"net.front_door_ns_per_event", "ns", "lower"},
    // wire codec
    {"wire.encode_ns", "ns", "lower"},
    {"wire.decode_ns", "ns", "lower"},
    // udp / process
    {"udp.datagrams_per_op", "count", "lower"},
    {"udp.poll_calls_per_op", "count", "lower"},
    {"udp.empty_poll_frac", "frac", "lower"},
    {"udp.poll_self_us_per_op", "us", "lower"},
    {"udp.send_us_per_op", "us", "lower"},
    {"udp.retransmits", "count", "lower"},
    {"udp.malformed", "count", "lower"},
    {"proc.user_us_per_op", "us", "lower"},
    {"proc.sys_us_per_op", "us", "lower"},
    // node
    {"node.handle_self_us_per_op", "us", "lower"},
    {"client.on_reply_self_us_per_op", "us", "lower"},
    {"node.stale_frac", "frac", "lower"},
    // store
    {"store.get_ns", "ns", "lower"},
    {"store.put_ns", "ns", "lower"},
    // latency percentile accuracy
    {"latency.p2_max_rel_err", "frac", "lower"},
    {"latency.p2_nonmonotone", "count", "lower"},
    {"latency.insert_p50_exact_us", "us", "lower"},
    {"latency.insert_p99_exact_us", "us", "lower"},
    {"latency.get_p50_exact_us", "us", "lower"},
    {"latency.get_p99_exact_us", "us", "lower"},
    // tracing
    {"trace.overhead_frac", "frac", "lower"},
};

[[nodiscard]] std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

[[nodiscard]] std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[nodiscard]] std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_list() {
  const auto dump = [](const char* key, const auto& specs) {
    std::cout << json_string(key) << ": [";
    bool first = true;
    for (const MetricSpec& m : specs) {
      std::cout << (first ? "" : ", ") << "{\"name\": " << json_string(m.name)
                << ", \"unit\": " << json_string(m.unit)
                << ", \"better\": " << json_string(m.better) << "}";
      first = false;
    }
    std::cout << "]";
  };
  std::cout << "{";
  dump("end_to_end", kEndToEnd);
  std::cout << ", ";
  dump("per_layer", kPerLayer);
  std::cout << "}\n";
}

int report(const Options& opt, Result& res) {
  res.set("peak_rss_mb", perfbench::peak_rss_mib(), "MiB", 1);
  res.set("failed_op_frac",
          res.attempted == 0 ? 1.0
                             : static_cast<double>(res.failed) /
                                   static_cast<double>(res.attempted),
          "frac", 1);

  std::vector<std::pair<MetricSpec, perfbench::Metric>> rows;
  const auto collect = [&](const auto& specs, bool required) {
    for (const MetricSpec& spec : specs) {
      perfbench::Metric m{0.0, spec.unit, 0};
      const auto it = res.metrics.find(spec.name);
      if (it != res.metrics.end()) {
        m = it->second;
      } else if (required) {
        res.fail(std::string("metric ") + spec.name + " was not measured", 0);
      }
      if (!std::isfinite(m.value)) {
        res.fail(std::string("metric ") + spec.name + " is not finite", 0);
        m.value = 0.0;
      }
      if (m.unit != spec.unit) {
        res.fail(std::string("metric ") + spec.name + " has unit " + m.unit,
                 0);
      }
      rows.emplace_back(spec, m);
    }
  };
  if (opt.trace) {
    collect(kPerLayer, false);
  } else {
    collect(kEndToEnd, true);
  }

  std::printf("%-36s %18s %-6s %s\n", "metric", "value", "unit", "samples");
  for (const auto& [spec, m] : rows) {
    std::printf("%-36s %18.6g %-6s n=%zu\n", spec.name, m.value, spec.unit,
                m.samples);
  }

  std::string record = "{\"record\": {";
  const auto field = [&](const std::string& k, const std::string& v) {
    if (record.back() != '{') record += ", ";
    record += json_string(k) + ": " + v;
  };
  field("workload", json_string(opt.workload));
  field("seed", std::to_string(opt.seed));
  field("seconds", json_number(opt.seconds));
  field("trace", opt.trace ? "1" : "0");
  field("cpu_model", json_string(cpu_model()));
  field("nproc", std::to_string(perfbench::hardware_threads()));
  field("compiler", json_string(__VERSION__));
  field("build_type", json_string(PERFBENCH_BUILD_TYPE));
  field("geochoice_obs",
        geochoice::obs::compiled_in() ? "true" : "false");
  for (const auto& [k, v] : res.record) field(k, json_string(v));
  for (const auto& [spec, m] : rows) {
    field(std::string("samples.") + spec.name, std::to_string(m.samples));
  }
  std::cout << record << "}}\n";

  std::string out = "{\"correct\": ";
  out += res.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [spec, m] : rows) {
    out += first ? "" : ", ";
    out += json_string(spec.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(spec.unit) + "}";
    first = false;
  }
  out += "}}";
  std::cout << out << std::endl;
  return res.correct ? 0 : 1;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "geochoice_perfbench: " << why
            << "\nusage: geochoice_perfbench --workload "
               "paper_trials|wire_des|udp_kv --seed N --seconds S "
               "--trace 0|1\n       geochoice_perfbench --self-test | "
               "--list-metrics\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena for every thread. With glibc's default of one arena
  // per thread, which freed arena a new worker thread picks up varies from
  // run to run, and peak_rss_mb with it (17 or 24 MiB on wire_des, whose
  // front door starts worker threads on every call).
  mallopt(M_ARENA_MAX, 1);
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return perfbench::self_test();
    if (flag == "--list-metrics") {
      print_list();
      return 0;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("no --workload");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  try {
    Result res;
    if (opt.workload == "paper_trials") {
      res = perfbench::run_paper_trials(opt);
    } else if (opt.workload == "wire_des") {
      res = perfbench::run_wire_des(opt);
    } else if (opt.workload == "udp_kv") {
      res = perfbench::run_udp_kv(opt);
    } else {
      usage("unknown workload " + opt.workload);
    }
    return report(opt, res);
  } catch (const std::exception& e) {
    std::cerr << "geochoice_perfbench: " << opt.workload << ": " << e.what()
              << "\n";
    return 1;
  }
}
