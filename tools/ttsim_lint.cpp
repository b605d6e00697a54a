/// \file ttsim_lint.cpp
/// Kernel protocol verifier CLI. Two modes:
///
///   * dynamic (default): runs the static linter, the happens-before race
///     detector and the deadlock diagnoser over the repo's golden workloads
///     (or a chosen subset) under DeviceConfig::enable_verify and reports
///     every finding. A program with broken declarations fails the
///     pre-launch lint pass before a single kernel is spawned.
///   * static (--ir-check / --ir-dump): builds the dataflow-IR graph each
///     workload would launch (src/ir) and runs the static protocol
///     type-checker over it — no device is opened, and the proof covers
///     all schedules and all trip counts, not the one a run observes.
///
/// Exit codes (distinct per failure class, for CI gating):
///   0  every selected workload clean / certified
///   1  dynamic findings (race, clobber, misaligned read, deadlock, lint)
///   2  usage error (bad flag, unknown workload, config the API rejects)
///   3  static IR findings (--ir-check rejected a graph)
///   4  infrastructure failure (unexpected exception; neither a finding
///      nor a usage error)
///
///   ttsim_lint                       # all dynamic workloads, default shape
///   ttsim_lint rowchunk sram --cores-y 4
///   ttsim_lint --ir-check            # certify every IR-modeled workload
///   ttsim_lint --ir-dump rowchunk    # print the rowchunk protocol graph
///   ttsim_lint --demo-lint           # the static linter on a broken program

#include <algorithm>
#include <cstring>
#include <exception>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "ttsim/common/check.hpp"
#include "ttsim/core/gallery.hpp"
#include "ttsim/core/ir_frontend.hpp"
#include "ttsim/core/jacobi_device.hpp"
#include "ttsim/core/sharded.hpp"
#include "ttsim/core/stencil.hpp"
#include "ttsim/ir/check.hpp"
#include "ttsim/ir/lower.hpp"
#include "ttsim/serve/serve.hpp"
#include "ttsim/stream/stream_bench.hpp"
#include "ttsim/ttmetal/device.hpp"
#include "ttsim/verify/lint.hpp"
#include "ttsim/verify/race.hpp"

namespace {

struct Options {
  int width = 128;
  int height = 128;
  int iterations = 4;
  int cores_y = 2;
  int read_ahead = 2;
  bool demo_lint = false;
  bool ir_check = false;
  bool ir_dump = false;
  std::vector<std::string> workloads;
};

void usage(std::ostream& os) {
  os << "usage: ttsim_lint [options] [workload...]\n"
        "\n"
        "dynamic workloads (default: all):\n"
        "  tiled write-optimised double-buffered rowchunk sram temporal\n"
        "  stream serve multichip\n"
        "static (--ir-check/--ir-dump) workloads (default: all):\n"
        "  rowchunk sram temporal gallery multichip\n"
        "\n"
        "options:\n"
        "  --width N --height N --iters N   Jacobi problem shape (default "
        "128x128x4)\n"
        "  --cores-y N                      worker rows per workload (default 2)\n"
        "  --read-ahead N                   rowchunk pipeline depth (default 2)\n"
        "  --ir-check                       run the static IR protocol checker\n"
        "                                   instead of dynamic runs (exit 3 on\n"
        "                                   findings)\n"
        "  --ir-dump                        print each workload's IR graph\n"
        "                                   (combines with --ir-check)\n"
        "  --demo-lint                      lint an intentionally broken program\n"
        "                                   and print the report (always exits 1)\n"
        "  -h, --help                       this message\n"
        "\n"
        "exit codes: 0 clean, 1 dynamic findings, 2 usage, 3 static IR\n"
        "findings, 4 infrastructure failure\n";
}

int print_findings(const std::string& name,
                   const std::vector<ttsim::verify::Finding>& findings) {
  if (findings.empty()) {
    std::cout << name << ": clean\n";
    return 0;
  }
  std::cout << name << ": " << findings.size() << " finding(s)\n";
  for (const auto& f : findings) {
    std::cout << "  " << ttsim::verify::to_string(f.kind) << " core " << f.core
              << " @0x" << std::hex << f.addr << std::dec << "+" << f.size
              << ": " << f.what << "\n";
  }
  return 1;
}

int run_jacobi(const std::string& name, ttsim::core::DeviceStrategy strategy,
               const Options& opt) {
  ttsim::ttmetal::DeviceConfig dc;
  dc.enable_verify = true;
  auto dev = ttsim::ttmetal::Device::open({}, dc);
  ttsim::core::JacobiProblem p;
  p.width = opt.width;
  p.height = opt.height;
  p.iterations = opt.iterations;
  ttsim::core::DeviceRunConfig cfg;
  cfg.strategy = strategy;
  cfg.cores_y = opt.cores_y;
  cfg.read_ahead = opt.read_ahead;
  ttsim::core::run_jacobi_on_device(*dev, p, cfg);
  return print_findings(name, dev->verifier()->findings());
}

/// The SRAM-resident program through both of its entry points: classic
/// Jacobi and a general single-field program (convection, whose diagonal
/// taps read the halo rows' L and R columns).
int run_sram(const Options& opt) {
  int rc = run_jacobi("sram", ttsim::core::DeviceStrategy::kSramResident, opt);
  ttsim::ttmetal::DeviceConfig dc;
  dc.enable_verify = true;
  auto dev = ttsim::ttmetal::Device::open({}, dc);
  ttsim::core::DeviceRunConfig cfg;
  cfg.strategy = ttsim::core::DeviceStrategy::kSramResident;
  cfg.cores_y = opt.cores_y;
  ttsim::core::run_general_stencil_on_device(
      *dev,
      ttsim::core::gallery::convection(static_cast<std::uint32_t>(opt.width),
                                       static_cast<std::uint32_t>(opt.height),
                                       opt.iterations),
      cfg);
  rc |= print_findings("sram convection", dev->verifier()->findings());
  return rc;
}

/// Temporal tiling at every chained depth: the semaphore-ring/epoch-barrier
/// protocol must stay race- and deadlock-clean across k = 2..8 (k + 1
/// iterations each, so every run has a full epoch plus a partial one).
int run_temporal(const Options& opt) {
  int rc = 0;
  for (int k = 2; k <= 8; ++k) {
    ttsim::ttmetal::DeviceConfig dc;
    dc.enable_verify = true;
    auto dev = ttsim::ttmetal::Device::open({}, dc);
    ttsim::core::JacobiProblem p;
    p.width = opt.width;
    p.height = opt.height;
    p.iterations = std::max(opt.iterations, k + 1);
    ttsim::core::DeviceRunConfig cfg;
    cfg.strategy = ttsim::core::DeviceStrategy::kTemporal;
    cfg.cores_y = opt.cores_y;
    cfg.temporal_depth = k;
    ttsim::core::run_jacobi_on_device(*dev, p, cfg);
    rc |= print_findings("temporal k=" + std::to_string(k),
                         dev->verifier()->findings());
  }
  return rc;
}

int run_stream(const Options& opt) {
  ttsim::ttmetal::DeviceConfig dc;
  dc.enable_verify = true;
  auto dev = ttsim::ttmetal::Device::open({}, dc);
  ttsim::stream::StreamParams p;
  p.rows = 32;
  p.num_cores = opt.cores_y;
  p.interleave_page = 16 * ttsim::KiB;
  ttsim::stream::run_streaming_benchmark(*dev, p);
  return print_findings("stream", dev->verifier()->findings());
}

/// The batched serving path, run twice: whole solves, then checkpointed
/// every 2 sweeps with a hotspot request beside the Jacobi tenants, so the
/// restore path (sealed written fields, the read-only power map restaged
/// from the request) runs under the detector too.
int run_serve(const Options& opt) {
  int rc = 0;
  for (const int checkpoint_every : {0, 2}) {
    const std::string name = checkpoint_every > 0 ? "serve checkpointed" : "serve";
    ttsim::serve::ServiceConfig cfg;
    cfg.cards = 1;
    cfg.device.enable_verify = true;
    cfg.run.strategy = ttsim::core::DeviceStrategy::kRowChunk;
    cfg.run.cores_x = 1;
    cfg.run.cores_y = 4;
    cfg.max_batch = 8;
    cfg.checkpoint_every = checkpoint_every;
    ttsim::serve::StencilService svc(cfg);
    std::vector<ttsim::serve::Request> requests;
    ttsim::core::JacobiProblem p;
    p.width = opt.width;
    p.height = opt.height;
    p.iterations = opt.iterations;
    for (int tenant = 0; tenant < 4; ++tenant) {
      ttsim::serve::Request req;
      req.problem = p;
      req.problem.bc_left = 0.25f * static_cast<float>(tenant + 1);
      req.tenant = tenant;
      requests.push_back(req);
    }
    if (checkpoint_every > 0) {
      ttsim::serve::Request req;
      req.general = ttsim::core::gallery::hotspot(static_cast<std::uint32_t>(opt.width),
                                                  static_cast<std::uint32_t>(opt.height),
                                                  std::max(opt.iterations, 3));
      req.tenant = 4;
      requests.push_back(req);
    }
    for (const auto& req : requests) {
      if (svc.submit(req).status != ttsim::serve::RequestStatus::kQueued) {
        std::cout << name << ": submit rejected\n";
        return 1;
      }
    }
    svc.drain();
    if (checkpoint_every > 0 && svc.metrics().checkpoints_taken == 0) {
      std::cout << name << ": no checkpoint was taken\n";
      return 1;
    }
    rc |= print_findings(name, svc.verify_findings());
  }
  return rc;
}

/// Two cards cabled with chip-to-chip links running the deep-halo sharded
/// solver: the per-card kernel protocol plus the exchange epochs must stay
/// clean on every card in the group.
int run_multichip(const Options& opt) {
  ttsim::ttmetal::DeviceConfig dc;
  dc.enable_verify = true;
  auto cluster = ttsim::core::ShardedCluster::open(2, {}, dc);
  ttsim::core::JacobiProblem p;
  p.width = opt.width;
  p.height = opt.height;
  p.iterations = std::max(opt.iterations, 4);
  ttsim::core::ShardedRunConfig cfg;
  cfg.run.strategy = ttsim::core::DeviceStrategy::kRowChunk;
  cfg.run.cores_y = opt.cores_y;
  cfg.run.read_ahead = opt.read_ahead;
  cfg.exchange_every = 2;  // more than one epoch, deep halo on each cut
  const auto devs = cluster.devices();
  ttsim::core::run_jacobi_sharded(devs, *cluster.fabric, p, cfg);
  int rc = 0;
  for (std::size_t i = 0; i < devs.size(); ++i) {
    rc |= print_findings("multichip card " + std::to_string(i),
                         devs[i]->verifier()->findings());
  }
  return rc;
}

// ---- static IR mode -------------------------------------------------------
//
// Builds the protocol graph each workload's launch would certify and runs the
// static checker over it. No device is opened; the row-chunk proof is swept
// over concrete read-ahead depths 2..8 and temporal tiling over chain depths
// 1..8, mirroring the dynamic sweeps above.

ttsim::core::JacobiProblem jacobi_problem(const Options& opt) {
  ttsim::core::JacobiProblem p;
  p.width = opt.width;
  p.height = opt.height;
  p.iterations = opt.iterations;
  return p;
}

/// Dump and/or check one graph. Returns 0 (certified or dump-only) or 3
/// (static findings).
int inspect(const std::string& name, const ttsim::ir::Graph& g,
            const Options& opt) {
  if (opt.ir_dump) std::cout << ttsim::ir::dump(g) << "\n";
  if (!opt.ir_check) return 0;
  const auto findings = ttsim::ir::check(g);
  if (findings.empty()) {
    std::cout << name << ": certified\n";
    return 0;
  }
  std::cout << name << ": " << findings.size() << " static finding(s)\n"
            << ttsim::verify::format_lint(findings);
  return 3;
}

int ir_rowchunk(const Options& opt) {
  int rc = 0;
  for (int depth = 2; depth <= 8; ++depth) {
    ttsim::core::DeviceRunConfig cfg;
    cfg.strategy = ttsim::core::DeviceStrategy::kRowChunk;
    cfg.cores_y = opt.cores_y;
    cfg.read_ahead = depth;
    rc = std::max(rc, inspect("rowchunk depth=" + std::to_string(depth),
                              ttsim::core::jacobi_ir_graph(jacobi_problem(opt), cfg),
                              opt));
  }
  return rc;
}

int ir_sram(const Options& opt) {
  ttsim::core::DeviceRunConfig cfg;
  cfg.strategy = ttsim::core::DeviceStrategy::kSramResident;
  cfg.cores_y = opt.cores_y;
  return inspect("sram", ttsim::core::jacobi_ir_graph(jacobi_problem(opt), cfg),
                 opt);
}

int ir_temporal(const Options& opt) {
  int rc = 0;
  for (int k = 1; k <= 8; ++k) {
    ttsim::core::JacobiProblem p = jacobi_problem(opt);
    p.iterations = std::max(opt.iterations, k + 1);
    ttsim::core::DeviceRunConfig cfg;
    cfg.strategy = ttsim::core::DeviceStrategy::kTemporal;
    cfg.cores_y = opt.cores_y;
    cfg.temporal_depth = k;
    rc = std::max(rc, inspect("temporal k=" + std::to_string(k),
                              ttsim::core::jacobi_ir_graph(p, cfg), opt));
  }
  return rc;
}

int ir_gallery(const Options& opt) {
  int rc = 0;
  for (const auto& entry : ttsim::core::gallery::suite()) {
    for (const ttsim::core::DeviceStrategy s :
         {ttsim::core::DeviceStrategy::kRowChunk,
          ttsim::core::DeviceStrategy::kSramResident,
          ttsim::core::DeviceStrategy::kTemporal}) {
      // Skip configs the device driver itself rejects.
      if (s != ttsim::core::DeviceStrategy::kRowChunk &&
          entry.problem.passes.size() > 1) {
        continue;
      }
      if (s == ttsim::core::DeviceStrategy::kSramResident &&
          entry.problem.fields.size() > 1) {
        continue;
      }
      ttsim::core::DeviceRunConfig cfg;
      cfg.strategy = s;
      std::string name = "gallery ";
      name += entry.name;
      name += " / ";
      name += ttsim::core::to_string(s);
      rc = std::max(
          rc, inspect(name, ttsim::core::general_ir_graph(entry.problem, cfg),
                      opt));
    }
  }
  return rc;
}

int ir_multichip(const Options& opt) {
  // Each card of the two-card sharded solver runs the row-chunk protocol on
  // its strip of the halo-split domain; the cross-card exchange reuses the
  // same ring/semaphore protocol per strip, so certifying each card's strip
  // graph covers the per-card launches.
  int rc = 0;
  for (int card = 0; card < 2; ++card) {
    ttsim::core::JacobiProblem strip = jacobi_problem(opt);
    strip.height = std::max(opt.height / 2, 8 * opt.cores_y);
    ttsim::core::DeviceRunConfig cfg;
    cfg.strategy = ttsim::core::DeviceStrategy::kRowChunk;
    cfg.cores_y = opt.cores_y;
    cfg.read_ahead = opt.read_ahead;
    rc = std::max(rc, inspect("multichip card " + std::to_string(card),
                              ttsim::core::jacobi_ir_graph(strip, cfg), opt));
  }
  return rc;
}

/// --demo-lint: every static check firing at once, so the report format is
/// easy to eyeball (and to paste into docs).
int demo_lint() {
  ttsim::verify::ProgramInfo p;
  p.kernels.push_back({/*kind=*/0, {0}, "reader"});
  p.kernels.push_back({/*kind=*/0, {0}, "shadow-reader"});  // duplicate kind
  p.kernels.push_back({/*kind=*/1, {99}, "off-grid-writer"});
  p.cbs.push_back({/*cb_id=*/0, {0}, /*page_size=*/48, /*num_pages=*/2, 0});
  p.cbs.push_back({/*cb_id=*/1, {3}, 1024, 2, 0});  // core 3 has no kernels
  p.semaphores.push_back({/*sem_id=*/0, {3}, 0});
  p.barriers.push_back({/*barrier_id=*/0, /*participants=*/64});
  ttsim::verify::DeviceInfo d;
  d.num_workers = 4;
  d.sram_bytes = 1024 * 1024;
  const auto errors = ttsim::verify::lint(p, d);
  std::cout << ttsim::verify::format_lint(errors);
  std::cout << "demo program: " << errors.size() << " lint error(s)\n";
  return 1;
}

int parse_int(const char* flag, const char* value, Options& opt, int Options::*field) {
  if (value == nullptr) {
    std::cerr << "ttsim_lint: " << flag << " needs a value\n";
    return 2;
  }
  opt.*field = std::atoi(value);
  if (opt.*field <= 0) {
    std::cerr << "ttsim_lint: " << flag << " must be positive\n";
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "-h" || arg == "--help") {
      usage(std::cout);
      return 0;
    } else if (arg == "--demo-lint") {
      opt.demo_lint = true;
    } else if (arg == "--ir-check") {
      opt.ir_check = true;
    } else if (arg == "--ir-dump") {
      opt.ir_dump = true;
    } else if (arg == "--width") {
      if (int rc = parse_int("--width", next(), opt, &Options::width)) return rc;
    } else if (arg == "--height") {
      if (int rc = parse_int("--height", next(), opt, &Options::height)) return rc;
    } else if (arg == "--iters") {
      if (int rc = parse_int("--iters", next(), opt, &Options::iterations)) return rc;
    } else if (arg == "--cores-y") {
      if (int rc = parse_int("--cores-y", next(), opt, &Options::cores_y)) return rc;
    } else if (arg == "--read-ahead") {
      if (int rc = parse_int("--read-ahead", next(), opt, &Options::read_ahead)) return rc;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "ttsim_lint: unknown option " << arg << "\n";
      usage(std::cerr);
      return 2;
    } else {
      opt.workloads.push_back(arg);
    }
  }
  if (opt.demo_lint) return demo_lint();
  const bool ir_mode = opt.ir_check || opt.ir_dump;
  if (opt.workloads.empty()) {
    opt.workloads =
        ir_mode ? std::vector<std::string>{"rowchunk", "sram", "temporal",
                                           "gallery", "multichip"}
                : std::vector<std::string>{"tiled",    "write-optimised",
                                           "double-buffered", "rowchunk",
                                           "sram",     "temporal",
                                           "stream",   "serve",
                                           "multichip"};
  }

  const std::vector<std::pair<std::string, std::function<int()>>> ir_runners = {
      {"rowchunk", [&] { return ir_rowchunk(opt); }},
      {"sram", [&] { return ir_sram(opt); }},
      {"temporal", [&] { return ir_temporal(opt); }},
      {"gallery", [&] { return ir_gallery(opt); }},
      {"multichip", [&] { return ir_multichip(opt); }},
  };
  const std::vector<std::pair<std::string, std::function<int()>>> dyn_runners = {
      {"tiled",
       [&] { return run_jacobi("tiled", ttsim::core::DeviceStrategy::kInitial, opt); }},
      {"write-optimised",
       [&] {
         return run_jacobi("write-optimised",
                           ttsim::core::DeviceStrategy::kWriteOptimised, opt);
       }},
      {"double-buffered",
       [&] {
         return run_jacobi("double-buffered",
                           ttsim::core::DeviceStrategy::kDoubleBuffered, opt);
       }},
      {"rowchunk",
       [&] { return run_jacobi("rowchunk", ttsim::core::DeviceStrategy::kRowChunk, opt); }},
      {"sram", [&] { return run_sram(opt); }},
      {"temporal", [&] { return run_temporal(opt); }},
      {"stream", [&] { return run_stream(opt); }},
      {"serve", [&] { return run_serve(opt); }},
      {"multichip", [&] { return run_multichip(opt); }},
  };
  const auto& runners = ir_mode ? ir_runners : dyn_runners;

  // Severity classes, resolved to a distinct exit code at the end. Findings
  // and usage errors used to collapse onto the same exit code (any exception
  // set 1); now a config the API rejects is a usage error (2), a verifier or
  // deadlock finding is 1, a static IR rejection is 3, and anything else is
  // an infrastructure failure (4).
  bool dynamic_findings = false;
  bool static_findings = false;
  bool infrastructure = false;
  for (const std::string& want : opt.workloads) {
    bool found = false;
    for (const auto& [name, fn] : runners) {
      if (name != want) continue;
      found = true;
      try {
        const int rc = fn();
        if (rc == 1) dynamic_findings = true;
        if (rc == 3) static_findings = true;
      } catch (const ttsim::ttmetal::DeviceTimeoutError& e) {
        // Watchdog fired: the what() already carries the wait-for diagnosis.
        std::cout << name << ": deadlock (watchdog)\n" << e.what() << "\n";
        dynamic_findings = true;
      } catch (const ttsim::ir::CheckError& e) {
        // lower() refused to emit; what() carries the formatted report.
        std::cout << name << ": rejected by the static checker\n"
                  << e.what() << "\n";
        static_findings = true;
      } catch (const ttsim::ApiError& e) {
        // The API rejected the requested configuration before anything ran:
        // that is a usage error, not a finding.
        std::cerr << "ttsim_lint: " << name << ": " << e.what() << "\n";
        return 2;
      } catch (const ttsim::CheckError& e) {
        // Engine quiescence (wait-cycle diagnosis) or the pre-launch lint
        // pass: both are verifier findings, not infrastructure.
        std::cout << name << ": failed\n" << e.what() << "\n";
        dynamic_findings = true;
      } catch (const std::exception& e) {
        std::cout << name << ": infrastructure failure\n" << e.what() << "\n";
        infrastructure = true;
      }
      break;
    }
    if (!found) {
      std::cerr << "ttsim_lint: unknown workload '" << want << "'"
                << (ir_mode ? " (static IR mode)" : "") << "\n";
      usage(std::cerr);
      return 2;
    }
  }
  if (infrastructure) return 4;
  if (static_findings) return 3;
  if (dynamic_findings) return 1;
  return 0;
}
