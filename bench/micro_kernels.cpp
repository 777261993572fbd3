// Google-benchmark microbenchmarks for the simulator substrates: scheduler
// throughput, schedule quantisation, stimulus generation, cochlea filtering,
// the end-to-end interface pipeline, with and without per-event history,
// the gateway's ingest kernels (byte CRC-32, DATA decode) and its session
// opening (config text load and dump, HELLO -> HELLO_ACK).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "aer/codec.hpp"
#include "analysis/error.hpp"
#include "analysis/power_curve.hpp"
#include "clockgen/schedule.hpp"
#include "cochlea/audio.hpp"
#include "cochlea/cochlea.hpp"
#include "core/config_io.hpp"
#include "core/scenario.hpp"
#include "gen/sources.hpp"
#include "i2s/framing.hpp"
#include "net/connection.hpp"
#include "net/wire.hpp"
#include "sim/scheduler.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "vision/dvs.hpp"

using namespace aetr;
using namespace aetr::time_literals;

namespace {

void BM_SchedulerScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    for (int i = 0; i < 1000; ++i) {
      sched.schedule_at(Time::ns(i), [] {});
    }
    sched.run();
    benchmark::DoNotOptimize(sched.processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerScheduleRun);

// Dense periodic: self-rescheduling clocks with coprime ns-scale periods —
// the clockgen/divider-cascade workload shape (steady-state, no allocation).
void BM_SchedulerDensePeriodic(benchmark::State& state) {
  struct Tick {
    sim::Scheduler* s{nullptr};
    Time period{};
    std::uint64_t remaining{0};
    void fire() {
      if (--remaining == 0) return;
      s->schedule_after(period, [this] { fire(); });
    }
  };
  constexpr std::int64_t kPeriodsPs[8] = {8333,  9973,  12007, 14983,
                                          20011, 25013, 33347, 50021};
  constexpr std::uint64_t kFires = 250;
  for (auto _ : state) {
    sim::Scheduler sched;
    Tick clocks[8];
    for (int i = 0; i < 8; ++i) {
      clocks[i] = Tick{&sched, Time::ps(kPeriodsPs[i]), kFires};
      sched.schedule_after(clocks[i].period, [t = &clocks[i]] { t->fire(); });
    }
    sched.run();
    benchmark::DoNotOptimize(sched.processed());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(8 * kFires));
}
BENCHMARK(BM_SchedulerDensePeriodic);

// Sparse Poisson: one source with exponential inter-arrival (10 ms mean) —
// a single far-ahead wakeup pending at a time, the sparse-AER-stream shape.
void BM_SchedulerSparsePoisson(benchmark::State& state) {
  Xoshiro256StarStar rng{11};
  std::vector<Time> deltas;
  deltas.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    deltas.push_back(Time::us(-std::log(rng.uniform(1e-12, 1.0)) * 1e4));
  }
  struct Source {
    sim::Scheduler* s{nullptr};
    const std::vector<Time>* deltas{nullptr};
    std::size_t i{0};
    void fire() {
      if (i >= deltas->size()) return;
      s->schedule_after((*deltas)[i++], [this] { fire(); });
    }
  };
  for (auto _ : state) {
    sim::Scheduler sched;
    Source src{&sched, &deltas, 0};
    src.fire();
    sched.run();
    benchmark::DoNotOptimize(sched.processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerSparsePoisson);

// Heavy cancel: 90% of scheduled events are cancelled before they fire —
// the pausable-clock pattern (schedule the next edge, cancel it on pause).
void BM_SchedulerHeavyCancel(benchmark::State& state) {
  std::vector<sim::EventId> ids(1000);
  for (auto _ : state) {
    sim::Scheduler sched;
    for (int i = 0; i < 1000; ++i) {
      ids[static_cast<std::size_t>(i)] =
          sched.schedule_at(Time::ns(i + 1), [] {});
    }
    for (int i = 0; i < 1000; ++i) {
      if (i % 10 != 0) sched.cancel(ids[static_cast<std::size_t>(i)]);
    }
    sched.run();
    benchmark::DoNotOptimize(sched.processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerHeavyCancel);

void BM_ScheduleMeasure(benchmark::State& state) {
  clockgen::ScheduleConfig cfg;
  cfg.theta_div = static_cast<std::uint32_t>(state.range(0));
  const clockgen::SamplingSchedule schedule{cfg};
  Xoshiro256StarStar rng{7};
  for (auto _ : state) {
    const auto m = schedule.measure(Time::us(rng.uniform(0.2, 2000.0)), 2);
    benchmark::DoNotOptimize(m.ticks);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScheduleMeasure)->Arg(16)->Arg(64);

// The capture's latency, not its throughput: each call's sample edge is
// the next interval's origin (sweep_error's carry, the engine's chain),
// so one measure() cannot start before the previous one ends. Args:
// theta_div and the mean exponential interval in microseconds.
void BM_ScheduleMeasureChained(benchmark::State& state) {
  clockgen::ScheduleConfig cfg;
  cfg.theta_div = static_cast<std::uint32_t>(state.range(0));
  const clockgen::SamplingSchedule schedule{cfg};
  Xoshiro256StarStar rng{7};
  constexpr std::size_t kIntervals = 4096;  // a power of two: cheap wrap
  std::vector<Time> intervals(kIntervals);
  const Time mean = Time::us(static_cast<double>(state.range(1)));
  for (Time& t : intervals) t = rng.exponential_time(mean);
  std::size_t i = 0;
  Time carry = Time::zero();
  for (auto _ : state) {
    Time elapsed = intervals[i] - carry;
    if (elapsed < Time::ps(1)) elapsed = Time::ps(1);
    const auto m = schedule.measure(elapsed, 2);
    benchmark::DoNotOptimize(m.ticks);
    carry = m.sample_edge - elapsed;
    i = (i + 1) & (kIntervals - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScheduleMeasureChained)
    ->Args({64, 10})
    ->Args({64, 333})
    ->Args({100, 10})
    ->Args({100, 333});

void BM_PoissonGeneration(benchmark::State& state) {
  gen::PoissonSource src{100e3, 128, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(src.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoissonGeneration);

void BM_LfsrGeneration(benchmark::State& state) {
  gen::LfsrRateSource src{100e3, Frequency::mhz(30.0), 128, 0xACE1, 0x1234};
  for (auto _ : state) {
    benchmark::DoNotOptimize(src.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LfsrGeneration);

// The Fig. 8 stimulus as run_scenario pulls it: 4096-event fill() chunks,
// at the grid's top rate (Arg 800000) and its lowest non-zero one (Arg 10).
void BM_LfsrFill(benchmark::State& state) {
  gen::LfsrRateSource src{static_cast<double>(state.range(0)),
                          Frequency::mhz(30.0), 128, 0xACE1, 0x1234};
  std::vector<aer::Event> chunk(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(src.fill(chunk));
    benchmark::DoNotOptimize(chunk.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(chunk.size()));
}
BENCHMARK(BM_LfsrFill)->Arg(800000)->Arg(10);

// One leap-ahead word of the Fig. 8 registers: Arg 16 is the address
// register, Arg 24 the interval register.
void BM_LfsrStepWord(benchmark::State& state) {
  const auto width = static_cast<std::uint32_t>(state.range(0));
  Lfsr lfsr{width, width == 24 ? 0x87u : 0x100Bu, 0xACE1u};
  for (auto _ : state) {
    benchmark::DoNotOptimize(lfsr.step_word());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LfsrStepWord)->Arg(16)->Arg(24);

void BM_CochleaAudioSecond(benchmark::State& state) {
  cochlea::CochleaConfig ccfg;
  ccfg.channels = static_cast<std::size_t>(state.range(0));
  ccfg.ears = 2;
  cochlea::CochleaModel model{ccfg};
  cochlea::AudioSynth synth{ccfg.sample_rate, 5};
  const auto audio = synth.tone(1000.0, 0.4, 50_ms);
  Time t = Time::zero();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.process(audio, t));
    t += 50_ms;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(audio.size()));
}
BENCHMARK(BM_CochleaAudioSecond)->Arg(16)->Arg(64);

void BM_ErrorSweepPoint(benchmark::State& state) {
  clockgen::ScheduleConfig cfg;
  cfg.theta_div = 64;
  for (auto _ : state) {
    const auto stats =
        analysis::sweep_error(cfg, 50e3, {.n_events = 1000, .seed = 1});
    benchmark::DoNotOptimize(stats.events);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ErrorSweepPoint);

void BM_EndToEndInterface(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0));
  gen::PoissonSource src{rate, 128, 9, Time::ns(130.0)};
  const auto events = gen::take(src, 2000);
  core::ScenarioConfig scn;
  scn.interface.front_end.keep_records = false;
  scn.interface.fifo.batch_threshold = 512;
  for (auto _ : state) {
    const auto r = core::run_scenario(scn, events);
    benchmark::DoNotOptimize(r.words_out);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_EndToEndInterface)->Arg(1000)->Arg(100000)->Arg(550000);

// What per-event history costs on the Fig. 8 path: one 800 kevt/s grid
// point (20,000 LFSR events) through run_scenario (history:1 keeps the
// decoded log and latencies) and run_scenario_totals (history:0,
// aggregates only).
void BM_RunScenarioHistory(benchmark::State& state) {
  const bool history = state.range(0) != 0;
  constexpr std::size_t kEvents = 20000;
  core::ScenarioConfig scn;  // default clock: theta_div = 64, n_div = 8
  scn.interface.front_end.keep_records = false;
  scn.interface.fifo.batch_threshold = 512;
  scn.cooldown = Time::ms(0.1);
  for (auto _ : state) {
    gen::LfsrRateSource src{800e3, Frequency::mhz(30.0), 128, 7, 0};
    const auto r = history ? core::run_scenario(scn, src, kEvents)
                           : core::run_scenario_totals(scn, src, kEvents);
    benchmark::DoNotOptimize(r.average_power_w);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kEvents));
}
BENCHMARK(BM_RunScenarioHistory)->ArgName("history")->Arg(1)->Arg(0);

// BM_RunScenarioHistory/history:0 with a 50 us drain timeout: at 800 kevt/s
// about 40 words wait when a deadline falls, far below the 512-word
// threshold, so the deadlines start the drains.
void BM_RunScenarioDrainTimeout(benchmark::State& state) {
  constexpr std::size_t kEvents = 20000;
  core::ScenarioConfig scn;
  scn.interface.front_end.keep_records = false;
  scn.interface.fifo.batch_threshold = 512;
  scn.interface.drain_timeout = Time::us(50.0);
  scn.cooldown = Time::ms(0.1);
  for (auto _ : state) {
    gen::LfsrRateSource src{800e3, Frequency::mhz(30.0), 128, 7, 0};
    const auto r = core::run_scenario_totals(scn, src, kEvents);
    benchmark::DoNotOptimize(r.average_power_w);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kEvents));
}
BENCHMARK(BM_RunScenarioDrainTimeout);

void BM_CodecEncodeDecode(benchmark::State& state) {
  aer::AetrCodec codec{static_cast<unsigned>(state.range(0))};
  Xoshiro256StarStar rng{5};
  std::vector<aer::CodedEvent> events;
  for (int i = 0; i < 1000; ++i) {
    events.push_back(aer::CodedEvent{
        static_cast<std::uint16_t>(rng.uniform_int(512)),
        rng.uniform_int(1u << 17)});
  }
  for (auto _ : state) {
    const auto words = codec.encode_stream(events);
    benchmark::DoNotOptimize(codec.decode_stream(words));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CodecEncodeDecode)->Arg(12)->Arg(22);

void BM_FrameEncodeDecode(benchmark::State& state) {
  std::vector<aer::AetrWord> payload;
  for (int i = 0; i < 256; ++i) {
    payload.push_back(aer::AetrWord::make(static_cast<std::uint16_t>(i),
                                          static_cast<std::uint64_t>(i)));
  }
  i2s::FrameEncoder enc;
  i2s::FrameDecoder dec{[](std::uint8_t, const std::vector<aer::AetrWord>&) {}};
  for (auto _ : state) {
    for (const auto w : enc.encode(payload)) dec.feed(w);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_FrameEncodeDecode);

// The byte CRC-32 behind every wire frame and snapshot trailer. Args: one
// event record (10 B), the folding kernel's shortest buffer (64 B), one
// 512-event DATA frame's CRC span (5124 B) and the largest stream_snapshot
// blob (6442 B). BM_Crc32Bytes runs the dispatched crc32_update (the
// carry-less-multiply fold from 64 B where the CPU has PCLMUL),
// BM_Crc32BytesTable the slice-by-8 table kernel alone.
std::vector<std::uint8_t> crc_input(std::int64_t size) {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  Xoshiro256StarStar rng{7};
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  return bytes;
}

void BM_Crc32Bytes(benchmark::State& state) {
  const auto bytes = crc_input(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32_bytes(bytes));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32Bytes)->Arg(10)->Arg(64)->Arg(5124)->Arg(6442);

void BM_Crc32BytesTable(benchmark::State& state) {
  const auto bytes = crc_input(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        util::crc32_update_table(0xFFFFFFFFu, bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32BytesTable)->Arg(10)->Arg(64)->Arg(5124)->Arg(6442);

// One 512-event DATA payload through the span decoder into a reused
// buffer, as the gateway decodes every frame.
void BM_DecodeData(benchmark::State& state) {
  gen::PoissonSource source{100e3, 256, 1};
  const auto events = gen::take(source, 512);
  const auto payload = net::encode_data(events, 0, events.size());
  aer::EventStream out;
  for (auto _ : state) {
    net::decode_data_into(payload.data(), payload.size(), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 512);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_DecodeData);

// One 512-event DATA frame into a warm in-process Connection (buffer cap
// 4096, history off, no snapshots), as stream_snapshot's frames that
// neither advance nor snapshot: parse in place, decode, one check-and-append
// pass, CREDIT reply. Frames are timed one by one. Untimed: each
// Connection's HELLO and first eight frames (its buffers still grow), and
// every eighth frame after them, which finds the buffer full and advances.
// A fresh Connection takes over when the pre-encoded stream runs out.
void BM_DataFrameIngest(benchmark::State& state) {
  constexpr std::size_t kFrame = 512;
  constexpr std::size_t kPerFill = 4096 / kFrame;  // frames that fill the cap
  constexpr std::size_t kFrames = 64;
  core::ScenarioConfig sc;
  sc.session.max_buffered_events = kFrame * kPerFill;
  gen::PoissonSource source{100e3, 256, 1};
  const auto events = gen::take(source, kFrame * kFrames);
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t k = 0; k < kFrames; ++k) {
    frames.push_back(net::encode_frame(
        net::MsgType::kData, 0, net::encode_data(events, k * kFrame, kFrame)));
  }
  net::Hello hello;
  hello.session_name = "bench";
  const auto hello_frame =
      net::encode_frame(net::MsgType::kHello, 0, net::encode_hello(hello));
  net::GatewayConfig gw;
  gw.default_scenario = sc;
  gw.keep_history = false;
  std::size_t reply_bytes = 0;
  const net::Connection::SendFn sink =
      [&reply_bytes](const std::vector<std::uint8_t>& reply) {
        reply_bytes += reply.size();
      };
  std::optional<net::Connection> conn;
  std::size_t next = kFrames;
  for (auto _ : state) {
    while (next < kPerFill || next % kPerFill == 0) {
      if (next == kFrames) {
        conn.emplace(gw, 1, sink);
        conn->on_bytes(hello_frame);
        next = 0;
      }
      conn->on_bytes(frames[next++]);
    }
    const auto t0 = std::chrono::steady_clock::now();
    const bool open = conn->on_bytes(frames[next++]);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    if (!open) {
      state.SkipWithError("DATA frame was not credited");
      break;
    }
  }
  benchmark::DoNotOptimize(reply_bytes);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kFrame));
}
BENCHMARK(BM_DataFrameIngest)->UseManualTime();

// Arg 0: the default scenario, whose numbers all print in six digits or
// fewer. Arg 1: every real, time, frequency and scaled key needs more
// digits than that.
core::ScenarioConfig config_with_digits(std::int64_t every_digit) {
  core::ScenarioConfig sc;
  if (every_digit == 0) return sc;
  for (const auto& [key, value] :
       {std::pair{"clock.ring_mhz", "118.7654321"},
        {"clock.wake_latency_ns", "1234.567"},
        {"frontend.metastability_prob", "0.123456789"},
        {"i2s.sck_mhz", "24.5761234"},
        {"drain_timeout_us", "12.345678"},
        {"power.static_uw", "47.123456789"},
        {"power.osc_domain_mw", "2.123456789"},
        {"sender.addr_setup_ns", "5123.456"},
        {"sender.req_release_ns", "5654.321"},
        {"sender.min_gap_ns", "10123.456"},
        {"session.cooldown_us", "1000.1234567"},
        {"fault.aer.drop_req_prob", "0.0123456789"},
        {"fault.aer.stuck_ack_prob", "0.00123456789"},
        {"fault.aer.addr_bit_flip_prob", "0.000123456789"},
        {"fault.aer.runt_req_prob", "0.0234567891"},
        {"fault.aer.runt_width_ns", "1234.567"},
        {"fault.clock.period_jitter_rel", "0.0345678912"},
        {"fault.clock.wake_jitter_rel", "0.0456789123"},
        {"fault.fifo.cell_bit_flip_prob", "0.0567891234"},
        {"fault.spi.word_bit_flip_prob", "0.0678912345"},
        {"fault.i2s.bit_error_rate", "0.0789123456"},
        {"fault.recovery.watchdog_timeout_us", "100.1234567"},
        {"telemetry.metrics_window_ms", "1.123456789"}}) {
    core::apply_scenario_key(sc, key, value);
  }
  return sc;
}

// load_scenario_text over a whole dump, as the gateway loads a HELLO.
void BM_ConfigLoad(benchmark::State& state) {
  const std::string text =
      core::dump_scenario(config_with_digits(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::load_scenario_text(text));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ConfigLoad)->ArgName("every_digit")->Arg(0)->Arg(1);

// dump_scenario, the session's config fingerprint.
void BM_ConfigDump(benchmark::State& state) {
  const core::ScenarioConfig sc = config_with_digits(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::dump_scenario(sc));
  }
}
BENCHMARK(BM_ConfigDump)->ArgName("every_digit")->Arg(0)->Arg(1);

// A fresh in-process Connection taking a HELLO with the default dump
// (buffer cap 4096) to its HELLO_ACK: load, session build, fingerprint.
void BM_HelloHandshake(benchmark::State& state) {
  core::ScenarioConfig sc;
  sc.session.max_buffered_events = 4096;
  net::Hello hello;
  hello.session_name = "bench";
  hello.config_text = core::dump_scenario(sc);
  const auto frame =
      net::encode_frame(net::MsgType::kHello, 0, net::encode_hello(hello));
  net::GatewayConfig gw;
  gw.default_scenario = sc;
  for (auto _ : state) {
    net::Connection c{gw, 1, [](const std::vector<std::uint8_t>& reply) {
                        benchmark::DoNotOptimize(reply.data());
                      }};
    c.on_bytes(frame);
    if (c.state() != net::Connection::State::kStreaming) {
      state.SkipWithError("HELLO was not acknowledged");
      break;
    }
  }
}
BENCHMARK(BM_HelloHandshake);

void BM_DvsFrameDiff(benchmark::State& state) {
  vision::DvsConfig cfg;
  cfg.background_rate_hz = 1.0;
  vision::DvsSensor sensor{cfg};
  vision::SceneGenerator scene{cfg.width, cfg.height};
  const auto a = scene.vertical_bar(10.0);
  const auto b = scene.vertical_bar(11.0);
  Time t = Time::zero();
  (void)sensor.process_frame(a, t);
  for (auto _ : state) {
    t += Time::ms(1.0);
    benchmark::DoNotOptimize(sensor.process_frame(b, t));
    t += Time::ms(1.0);
    benchmark::DoNotOptimize(sensor.process_frame(a, t));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_DvsFrameDiff);

void BM_ExpectedPowerClosedForm(benchmark::State& state) {
  clockgen::ScheduleConfig cfg;
  const auto cal = power::PowerCalibration::paper();
  double rate = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::expected_power(cfg, cal, rate));
    rate = rate < 1e6 ? rate * 1.5 : 10.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExpectedPowerClosedForm);

}  // namespace

BENCHMARK_MAIN();
