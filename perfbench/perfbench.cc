/// Host-time benchmark program for the simulator (see perfbench/README.md).
///
/// One invocation runs one workload once, in the simulator's default
/// execution mode (exp::SimTuning{} defaults: predecoded dispatch, idle
/// skipping, serial kernel), and prints one JSON object on stdout with the
/// host times, the simulated outputs and the exact work counts. run.py
/// repeats it, checks the outputs and reports medians.
///
///   perfbench oracle --seed N
///   perfbench run --workload fig7a_sweep|ips_pigasus|fwd_sparse --seed N
///                 [--health 0|1] [--trace 0|1] [--scale F] [--trace-out FILE]
///
/// Every layer is timed from outside: setup calls and run_cycles chunks as
/// individual spans, and (with --trace 1) the traffic generator, the
/// accelerator's virtual calls and the host rx handler as per-chunk
/// aggregates of call count and time. Nothing inside src/ is instrumented.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accel/pigasus.h"
#include "core/experiments.h"
#include "core/system.h"
#include "firmware/programs.h"
#include "net/headers.h"
#include "net/rules.h"
#include "net/tracegen.h"
#include "obs/health.h"
#include "obs/json.h"
#include "oracle/harness.h"
#include "rpu/accelerator.h"

using namespace rosebud;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
}

/// Full-precision JSON number (JsonWriter::value(double) keeps 6 decimals,
/// too few for per-call times).
std::string
num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// --- tracing ----------------------------------------------------------------

/// Fine call sites, aggregated per run_cycles chunk.
enum Site { kGen, kAccelTick, kAccelMmio, kHostRx, kSiteCount };
const char* const kSiteNames[kSiteCount] = {"net.gen", "accel.tick", "accel.mmio",
                                            "host.rx"};

struct Agg {
    uint64_t calls = 0;
    int64_t ns = 0;
};

struct Span {
    std::string name;
    unsigned system = 0;
    double start = 0;  ///< seconds since the tracer's origin
    double end = 0;
};

struct Chunk {
    unsigned system = 0;
    uint64_t end_cycle = 0;
    double start = 0;
    double end = 0;
    size_t awake = 0;  ///< Kernel::awake_count() when the chunk returned
    std::array<Agg, kSiteCount> sites{};
};

/// Spans and per-chunk aggregates, kept in memory and written out when the
/// run ends. `fine` is false on untimed runs: the wrappers are then not
/// installed at all, so untraced runs pay nothing.
struct Tracer {
    bool fine = false;
    Clock::time_point origin = Clock::now();
    std::array<Agg, kSiteCount> open{};  ///< the chunk in progress
    std::vector<Span> spans;
    std::vector<Chunk> chunks;

    double at(Clock::time_point t) const { return seconds(t - origin); }

    template <typename F>
    auto timed(Site s, F&& f) {
        auto t0 = Clock::now();
        struct Close {
            Agg& a;
            Clock::time_point t0;
            ~Close() {
                a.ns += (Clock::now() - t0).count();
                ++a.calls;
            }
        } close{open[s], t0};
        return f();
    }
};

/// Times one coarse setup call as a span and adds it to `total`.
template <typename F>
void
span(Tracer& tr, const char* name, unsigned system, double& total, F&& f) {
    auto t0 = Clock::now();
    f();
    auto t1 = Clock::now();
    tr.spans.push_back({name, system, tr.at(t0), tr.at(t1)});
    total += seconds(t1 - t0);
}

/// Forwards every rpu::Accelerator call to the real accelerator, timing
/// tick and MMIO.
class TimedAccelerator : public rpu::Accelerator {
 public:
    TimedAccelerator(std::unique_ptr<rpu::Accelerator> inner, Tracer& tr)
        : inner_(std::move(inner)), tr_(tr) {}

    void reset() override { inner_->reset(); }
    void tick(rpu::AccelContext& ctx) override {
        tr_.timed(kAccelTick, [&] { inner_->tick(ctx); });
    }
    bool mmio_read(uint32_t offset, uint32_t& value, rpu::AccelContext& ctx) override {
        return tr_.timed(kAccelMmio, [&] { return inner_->mmio_read(offset, value, ctx); });
    }
    bool mmio_write(uint32_t offset, uint32_t value, rpu::AccelContext& ctx) override {
        return tr_.timed(kAccelMmio, [&] { return inner_->mmio_write(offset, value, ctx); });
    }
    sim::ResourceFootprint resources() const override { return inner_->resources(); }
    std::string name() const override { return inner_->name(); }
    unsigned stream_ports() const override { return inner_->stream_ports(); }
    unsigned queue_count() const override { return inner_->queue_count(); }

 private:
    std::unique_ptr<rpu::Accelerator> inner_;
    Tracer& tr_;
};

/// Cost of the fine wrapper, measured on an empty call: `inside` is what an
/// empty call records, `full` is its whole host cost.
struct TimerCost {
    double inside_ns = 0;
    double full_ns = 0;
};

TimerCost
calibrate_timer() {
    constexpr int kBatches = 7;
    constexpr int kCalls = 100'000;
    std::vector<double> inside, full;
    volatile uint64_t sink = 0;
    for (int b = 0; b < kBatches; ++b) {
        Tracer tr;
        auto t0 = Clock::now();
        for (int i = 0; i < kCalls; ++i) tr.timed(kGen, [&] { sink = sink + 1; });
        full.push_back(double((Clock::now() - t0).count()) / kCalls);
        inside.push_back(double(tr.open[kGen].ns) / kCalls);
    }
    // The least inside cost seen, so that netting never removes more than
    // the timer itself took from a layer's time.
    std::sort(full.begin(), full.end());
    return {*std::min_element(inside.begin(), inside.end()), full[kBatches / 2]};
}

// --- workloads ----------------------------------------------------------------

struct Options {
    std::string workload;
    uint64_t seed = 1;
    bool health = false;
    bool trace = false;
    double scale = 1.0;
    std::string trace_out;
};

constexpr sim::Cycle kBootCycles = 500;
constexpr sim::Cycle kChunk = 10'000;  ///< traced run_cycles granularity

/// Scaled phase length, kept a whole number of chunks.
sim::Cycle
scaled(sim::Cycle n, double scale) {
    auto c = sim::Cycle(std::llround(double(n) * scale / double(kChunk)));
    return std::max<sim::Cycle>(1, c) * kChunk;
}

/// Simulated goodput against the paper's value (EXPERIMENTS.md), given as
/// a share of line rate there.
struct Accuracy {
    std::string point;
    double gbps = 0;
    double line_gbps = 0;
    double paper_share = 0;
};

struct Result {
    // End to end.
    double setup_s = 0;
    double run_s = 0;
    uint64_t traffic_cycles = 0;
    // Setup split.
    double construct_s = 0, rules_synth_s = 0, attach_s = 0, load_s = 0,
           first_run_s = 0;
    // Kernel.
    uint64_t sim_cycles = 0;
    uint64_t fast_forwarded = 0;
    size_t components = 0;
    bool parallel_effective = false;
    bool decoupled_effective = false;
    bool default_mode = true;
    // Simulated outputs and exact counts, summed over systems.
    std::map<std::string, uint64_t> counts;
    std::map<std::string, double> gbps;
    std::vector<uint64_t> fingerprints;
    std::vector<Accuracy> accuracy;
};

/// Generator that clones a prototype frame, as exp::run_forwarding does.
dist::TrafficSource::GenFn
fixed_size_gen(uint32_t size, uint64_t seed, uint64_t& calls) {
    net::PacketBuilder b;
    b.ipv4(0x0a000001 + uint32_t(seed), 0x0a000002)
        .udp(uint16_t(1024 + seed), 2000)
        .frame_size(size);
    net::PacketPtr proto = b.build();
    uint64_t next_id = seed << 32;
    return [proto, next_id, &calls]() mutable {
        auto p = std::make_shared<net::Packet>(*proto);
        p->id = next_id++;
        ++calls;
        return p;
    };
}

uint64_t
rpu_sum(System& sys, const char* suffix) {
    uint64_t total = 0;
    for (unsigned i = 0; i < sys.rpu_count(); ++i)
        total += sys.stats().get("rpu" + std::to_string(i) + "." + suffix);
    return total;
}

/// One System from construction to teardown, with its setup and traffic
/// phases timed. Workloads drive it in order: build, (attach), load,
/// traffic, finish.
class Board {
 public:
    Board(Tracer& tr, Result& res, unsigned index)
        : tr_(tr), res_(res), index_(index), start_(Clock::now()) {}

    System& build(const SystemConfig& cfg) {
        span(tr_, "core.construct", index_, res_.construct_s,
             [&] { sys_ = std::make_unique<System>(cfg); });
        // exp::SimTuning{} defaults, applied as exp::run_* applies them.
        const exp::SimTuning mode{};
        sys_->kernel().set_idle_skip(mode.idle_skip);
        for (unsigned i = 0; i < sys_->rpu_count(); ++i)
            sys_->rpu(i).core().set_predecode(mode.predecode);
        return *sys_;
    }

    void attach(const net::IdsRuleSet& rules) {
        span(tr_, "accel.attach", index_, res_.attach_s, [&] {
            sys_->attach_accelerators([&]() -> std::unique_ptr<rpu::Accelerator> {
                auto m = std::make_unique<accel::PigasusMatcher>(rules);
                if (!tr_.fine) return m;
                return std::make_unique<TimedAccelerator>(std::move(m), tr_);
            });
        });
    }

    /// Firmware load (verifier + certificate gate), boot, and the first
    /// run_cycles (pre-cycle-0 netlist lint + boot cycles).
    void load(const fwlib::Program& fw) {
        span(tr_, "verify.load", index_, res_.load_s,
             [&] { sys_->host().load_firmware_all(fw.image, fw.entry); });
        sys_->host().boot_all();
        span(tr_, "lint.first_run", index_, res_.first_run_s,
             [&] { sys_->run_cycles(kBootCycles); });
    }

    void add_source(unsigned port, double load, dist::TrafficSource::GenFn gen) {
        if (tr_.fine) {
            gen = [inner = std::move(gen), this]() {
                return tr_.timed(kGen, [&] { return inner(); });
            };
        }
        sources_.push_back(&sys_->add_source(
            {.port = port, .line_gbps = 100.0, .load = load}, std::move(gen)));
    }

    /// Marks the first traffic cycle: everything before it is setup.
    void traffic_starts() {
        auto t = Clock::now();
        tr_.spans.push_back({"setup", index_, tr_.at(start_), tr_.at(t)});
        res_.setup_s += seconds(t - start_);
    }

    void run(sim::Cycle n) {
        sim::Cycle step = tr_.fine ? kChunk : n;
        for (sim::Cycle done = 0; done < n; done += step) {
            sim::Cycle len = std::min(step, n - done);
            auto t0 = Clock::now();
            sys_->run_cycles(len);
            auto t1 = Clock::now();
            res_.run_s += seconds(t1 - t0);
            if (tr_.fine) {
                tr_.chunks.push_back({index_, sys_->kernel().now(), tr_.at(t0), tr_.at(t1),
                                      sys_->kernel().awake_count(), tr_.open});
                tr_.open = {};
            }
        }
        res_.traffic_cycles += n;
    }

    /// Collects the simulated outputs; the monitor (if any) is still
    /// attached, so its effect on state is covered by the fingerprint.
    void finish(uint64_t gen_calls) {
        System& s = *sys_;
        auto& c = res_.counts;
        for (unsigned p = 0; p < 2; ++p) {
            std::string k = "sink" + std::to_string(p);
            c[k + ".frames"] += s.sink(p).frames();
            c[k + ".bytes"] += s.sink(p).bytes();
            c["dist.frames_delivered"] += s.sink(p).frames();
        }
        for (dist::TrafficSource* src : sources_) c["dist.mac_drops"] += src->dropped_at_mac();
        for (unsigned i = 0; i < s.rpu_count(); ++i) {
            c["rv.instret"] += s.rpu(i).core().instret();
            c["rv.cycles"] += s.rpu(i).core().cycles();
        }
        for (const char* k : {"rx_packets", "tx_packets", "dropped_packets", "tx_stall_cycles"})
            c[std::string("rpu.") + k] += rpu_sum(s, k);
        for (const char* k : {"lb.assigned", "lb.assign_stall", "lb.reassembler.held",
                              "host.rx_frames", "pigasus.jobs", "pigasus.matches"})
            c[k] += s.stats().get(k);
        c["net.gen_calls"] += gen_calls;

        sim::Kernel& k = s.kernel();
        res_.sim_cycles += k.now();
        res_.fast_forwarded += k.fast_forwarded_cycles();
        res_.components = std::max(res_.components, k.component_count());
        res_.parallel_effective |= k.parallel_effective();
        res_.decoupled_effective |= k.decoupled_effective() || s.decoupled_active();
        res_.default_mode &= k.idle_skip_effective();
        for (unsigned i = 0; i < s.rpu_count(); ++i)
            res_.default_mode &= s.rpu(i).core().predecode();
        res_.fingerprints.push_back(s.state_fingerprint());
    }

 private:
    Tracer& tr_;
    Result& res_;
    unsigned index_;
    Clock::time_point start_;
    std::unique_ptr<System> sys_;
    std::vector<dist::TrafficSource*> sources_;
};

/// Figure 7a sweep: one 16-RPU forwarder per size at line rate on both
/// ports, configured as exp::run_forwarding.
void
fig7a_sweep(const Options& opt, Tracer& tr, Result& res) {
    const sim::Cycle warmup = scaled(30'000, opt.scale);
    const sim::Cycle window = scaled(120'000, opt.scale);
    unsigned index = 0;
    for (uint32_t size : exp::figure7_sizes()) {
        uint64_t gen_calls = 0;
        Board b(tr, res, index++);
        SystemConfig cfg;
        cfg.rpu_count = 16;
        System& sys = b.build(cfg);
        b.load(fwlib::forwarder());
        for (unsigned port = 0; port < 2; ++port)
            b.add_source(port, 1.0, fixed_size_gen(size, opt.seed + port, gen_calls));
        b.traffic_starts();
        b.run(warmup);
        sys.sink(0).start_window();
        sys.sink(1).start_window();
        b.run(window);

        double secs = double(window) / sim::kClockHz;
        uint64_t bytes = sys.sink(0).window_bytes() + sys.sink(1).window_bytes();
        double gbps = double(bytes) * 8.0 / secs / 1e9;
        double line = net::line_rate_goodput_gbps(size, 200.0);
        res.gbps[std::to_string(size)] = gbps;
        res.accuracy.push_back(
            {std::to_string(size) + "B", gbps, line, size == 64 ? 0.88 : size == 65 ? 0.89 : 1.0});
        b.finish(gen_calls);
    }
}

/// Figure 8 IPS, HW-reorder mode, with the production health monitor
/// attached as `rosebud_cli health` attaches it (exp::run_ips defaults).
void
ips_pigasus(const Options& opt, Tracer& tr, Result& res) {
    constexpr uint32_t kSize = 1024;
    const sim::Cycle warmup = scaled(40'000, opt.scale);
    const sim::Cycle window = scaled(960'000, opt.scale);
    Board b(tr, res, 0);

    net::IdsRuleSet rules;
    span(tr, "net.rules_synth", 0, res.rules_synth_s, [&] {
        sim::Rng rng(opt.seed);
        rules = net::IdsRuleSet::synthesize(64, rng);
    });
    SystemConfig cfg;
    cfg.rpu_count = 8;
    cfg.lb_policy = lb::Policy::kRoundRobin;
    cfg.hw_reassembler = true;
    System& sys = b.build(cfg);
    b.attach(rules);
    b.load(fwlib::pigasus_hw_reorder());

    struct HostRx {
        uint64_t frames = 0, bytes = 0, attacks = 0;
    } rx;
    auto on_rx = [&rx](const net::PacketPtr& pkt) {
        ++rx.frames;
        rx.bytes += pkt->size();
        if (pkt->is_attack) ++rx.attacks;
    };
    if (tr.fine) {
        sys.host().set_rx_handler(
            [&](net::PacketPtr pkt) { tr.timed(kHostRx, [&] { on_rx(pkt); }); });
    } else {
        sys.host().set_rx_handler([&](net::PacketPtr pkt) { on_rx(pkt); });
    }

    std::unique_ptr<obs::HealthMonitor> mon;
    if (opt.health) {
        obs::HealthConfig hc;
        hc.slo = obs::parse_slo(obs::HealthSpec{}.slo);
        mon = std::make_unique<obs::HealthMonitor>(hc);
        mon->attach(sys);
    }

    net::TrafficSpec spec;
    spec.packet_size = kSize;
    spec.attack_fraction = 0.01;
    spec.reorder_fraction = 0.003;
    spec.udp_fraction = 0.05;
    uint64_t gen_calls = 0, attacks_offered = 0;
    for (unsigned port = 0; port < 2; ++port) {
        net::TrafficSpec s = spec;
        s.seed = opt.seed + port + 1;
        auto gen = std::make_shared<net::TraceGenerator>(s, &rules);
        b.add_source(port, 1.0, [gen, &gen_calls, &attacks_offered]() {
            auto pkt = gen->next();
            ++gen_calls;
            if (pkt->is_attack) ++attacks_offered;
            return pkt;
        });
    }
    b.traffic_starts();
    b.run(warmup);
    sys.sink(0).start_window();
    sys.sink(1).start_window();
    HostRx at_window = rx;
    b.run(window);

    double secs = double(window) / sim::kClockHz;
    uint64_t bytes = sys.sink(0).window_bytes() + sys.sink(1).window_bytes() +
                     (rx.bytes - at_window.bytes);
    double gbps = double(bytes) * 8.0 / secs / 1e9;
    res.gbps[std::to_string(kSize)] = gbps;
    res.accuracy.push_back({"1024B-hw", gbps, net::line_rate_goodput_gbps(kSize, 200.0), 1.0});
    res.counts["host.rx_bytes"] += rx.bytes;
    res.counts["host.rx_attacks"] += rx.attacks;
    res.counts["net.attacks_offered"] += attacks_offered;
    b.finish(gen_calls);
    if (mon) {
        mon->flush_epoch();
        mon->detach();
    }
}

/// Low-duty forwarding: 16 RPUs, 256 B frames at 0.5% of line rate.
void
fwd_sparse(const Options& opt, Tracer& tr, Result& res) {
    const sim::Cycle length = scaled(20'000'000, opt.scale);
    uint64_t gen_calls = 0;
    Board b(tr, res, 0);
    SystemConfig cfg;
    cfg.rpu_count = 16;
    b.build(cfg);
    b.load(fwlib::forwarder());
    for (unsigned port = 0; port < 2; ++port)
        b.add_source(port, 0.005, fixed_size_gen(256, opt.seed + port, gen_calls));
    b.traffic_starts();
    b.run(length);
    b.finish(gen_calls);
}

double
peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string
result_json(const Options& opt, const Result& r, const Tracer& tr, const TimerCost& cost) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("workload").value(opt.workload);
    w.key("seed").value(opt.seed);
    w.key("health").value(opt.health);
    w.key("trace").value(opt.trace);
    w.key("scale").raw(num(opt.scale));
    w.key("mode").begin_object();
    w.key("default").value(r.default_mode);
    w.key("parallel_effective").value(r.parallel_effective);
    w.key("decoupled_effective").value(r.decoupled_effective);
    w.end_object();
    w.key("setup_s").raw(num(r.setup_s));
    w.key("run_s").raw(num(r.run_s));
    w.key("traffic_cycles").value(r.traffic_cycles);
    w.key("peak_rss_mb").raw(num(peak_rss_mb()));
    w.key("setup").begin_object();
    w.key("core.construct_s").raw(num(r.construct_s));
    w.key("net.rules_synth_s").raw(num(r.rules_synth_s));
    w.key("accel.attach_s").raw(num(r.attach_s));
    w.key("verify.load_s").raw(num(r.load_s));
    w.key("lint.first_run_s").raw(num(r.first_run_s));
    w.end_object();
    w.key("kernel").begin_object();
    w.key("sim_cycles").value(r.sim_cycles);
    w.key("fast_forwarded").value(r.fast_forwarded);
    w.key("components").value(uint64_t(r.components));
    w.end_object();
    w.key("counts").begin_object();
    for (const auto& [k, v] : r.counts) w.key(k).value(v);
    w.end_object();
    w.key("gbps").begin_object();
    for (const auto& [k, v] : r.gbps) w.key(k).raw(num(v));
    w.end_object();
    w.key("fingerprints").begin_array();
    for (uint64_t f : r.fingerprints) {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)f);
        w.value(buf);
    }
    w.end_array();
    w.key("accuracy").begin_array();
    for (const Accuracy& a : r.accuracy) {
        w.begin_object();
        w.key("point").value(a.point);
        w.key("gbps").raw(num(a.gbps));
        w.key("line_gbps").raw(num(a.line_gbps));
        w.key("paper_share").raw(num(a.paper_share));
        w.end_object();
    }
    w.end_array();
    if (opt.trace) {
        std::array<Agg, kSiteCount> tot{};
        uint64_t awake_sum = 0;
        for (const Chunk& c : tr.chunks) {
            awake_sum += c.awake;
            for (int s = 0; s < kSiteCount; ++s) {
                tot[s].calls += c.sites[s].calls;
                tot[s].ns += c.sites[s].ns;
            }
        }
        w.key("traced").begin_object();
        w.key("timer_inside_ns").raw(num(cost.inside_ns));
        w.key("timer_full_ns").raw(num(cost.full_ns));
        w.key("chunks").value(uint64_t(tr.chunks.size()));
        w.key("awake_mean").raw(
            num(tr.chunks.empty() ? 0.0 : double(awake_sum) / double(tr.chunks.size())));
        for (int s = 0; s < kSiteCount; ++s) {
            w.key(std::string(kSiteNames[s]) + ".calls").value(tot[s].calls);
            w.key(std::string(kSiteNames[s]) + ".raw_s").raw(num(double(tot[s].ns) * 1e-9));
        }
        w.end_object();
    }
    w.end_object();
    return w.str();
}

/// Writes every span and chunk aggregate (the in-memory trace).
bool
write_trace(const std::string& path, const Tracer& tr) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("spans").begin_array();
    for (const Span& s : tr.spans) {
        w.begin_object();
        w.key("name").value(s.name);
        w.key("system").value(uint64_t(s.system));
        w.key("start").raw(num(s.start));
        w.key("end").raw(num(s.end));
        w.end_object();
    }
    w.end_array();
    w.key("chunks").begin_array();
    for (const Chunk& c : tr.chunks) {
        w.begin_object();
        w.key("system").value(uint64_t(c.system));
        w.key("end_cycle").value(c.end_cycle);
        w.key("start").raw(num(c.start));
        w.key("end").raw(num(c.end));
        w.key("awake").value(uint64_t(c.awake));
        for (int s = 0; s < kSiteCount; ++s) {
            if (c.sites[s].calls == 0) continue;
            w.key(kSiteNames[s]).begin_array();
            w.value(c.sites[s].calls);
            w.value(uint64_t(c.sites[s].ns));
            w.end_array();
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::string s = w.str();
    bool ok = std::fwrite(s.data(), 1, s.size(), f) == s.size();
    return std::fclose(f) == 0 && ok;
}

/// Short differential runs against the golden oracle for the two pipelines
/// the workloads use.
int
oracle_gate(uint64_t seed) {
    oracle::RunSpec fwd;
    fwd.pipeline = oracle::Pipeline::kForwarder;
    fwd.rpu_count = 16;
    fwd.seed = seed;
    oracle::RunSpec ids;
    ids.pipeline = oracle::Pipeline::kPigasusHwReorder;
    ids.rpu_count = 8;
    ids.hw_reassembler = true;
    ids.attack_fraction = 0.2;
    ids.reorder_fraction = 0.05;
    ids.seed = seed;
    bool all_ok = true;
    for (const oracle::RunSpec& s : {fwd, ids}) {
        oracle::RunResult r = oracle::run_differential(s);
        obs::JsonWriter w;
        w.begin_object();
        w.key("pipeline").value(oracle::pipeline_name(s.pipeline));
        w.key("ok").value(r.ok);
        w.key("offered").value(r.counts.offered);
        w.key("divergences").value(r.counts.divergences);
        w.end_object();
        std::printf("%s\n", w.str().c_str());
        if (!r.ok) std::fprintf(stderr, "%s\n", r.report.c_str());
        all_ok = all_ok && r.ok;
    }
    return all_ok ? 0 : 1;
}

[[noreturn]] void
usage() {
    std::fprintf(stderr,
                 "usage: perfbench oracle --seed N\n"
                 "       perfbench run --workload fig7a_sweep|ips_pigasus|fwd_sparse "
                 "--seed N [--health 0|1] [--trace 0|1] [--scale F] [--trace-out FILE]\n"
                 "       (--health applies to ips_pigasus only)\n");
    std::exit(2);
}

}  // namespace

int
main(int argc, char** argv) {
    if (argc < 2) usage();
    std::string cmd = argv[1];
    Options opt;
    bool health_set = false;
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        char* end = nullptr;
        if (k == "--workload") {
            opt.workload = v;
        } else if (k == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--health") {
            opt.health = v == "1";
            health_set = true;
        } else if (k == "--trace") {
            opt.trace = v == "1";
        } else if (k == "--scale") {
            opt.scale = std::strtod(v.c_str(), &end);
            if (!(opt.scale > 0 && opt.scale <= 1)) usage();
        } else if (k == "--trace-out") {
            opt.trace_out = v;
        } else {
            usage();
        }
        if (end && *end) usage();
    }
    if (argc % 2) usage();
    if (cmd == "oracle") return oracle_gate(opt.seed);
    if (cmd != "run") usage();

    void (*workload)(const Options&, Tracer&, Result&) = nullptr;
    if (opt.workload == "fig7a_sweep") workload = fig7a_sweep;
    if (opt.workload == "ips_pigasus") workload = ips_pigasus;
    if (opt.workload == "fwd_sparse") workload = fwd_sparse;
    if (!workload) usage();
    if (health_set && opt.workload != "ips_pigasus") usage();
    if (!health_set) opt.health = opt.workload == "ips_pigasus";

    // Calibrated before and after the workload, so a change in the host's
    // speed during the run cannot make netting remove more than the timer
    // cost.
    TimerCost cost;
    if (opt.trace) cost = calibrate_timer();
    Tracer tr;
    tr.fine = opt.trace;
    Result res;
    workload(opt, tr, res);
    if (opt.trace) {
        TimerCost after = calibrate_timer();
        cost = {std::min(cost.inside_ns, after.inside_ns), (cost.full_ns + after.full_ns) / 2};
    }
    if (!opt.trace_out.empty() && !write_trace(opt.trace_out, tr)) {
        std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
        return 1;
    }
    std::printf("%s\n", result_json(opt, res, tr, cost).c_str());
    return 0;
}
