#include "telemetry/telemetry.hpp"

#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <queue>
#include <sstream>
#include <thread>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "trace/chrome_trace.hpp"

namespace alb::telemetry {

namespace {

// Thread-local ring cache, validated against the owning collector's
// generation so enable()/shutdown() cycles (tests do several per
// process) can never hand out a ring of a dead collector.
thread_local std::uint64_t t_gen = 0;
thread_local ThreadRing* t_ring = nullptr;
thread_local int t_index = -1;

std::atomic<std::uint64_t> g_generation{0};

// The collector object outlives shutdown() (harvests stay valid) and is
// reclaimed on the next enable(). Guarded by g_owner_mu because enable
// and shutdown may be called from tests on any thread.
std::mutex g_owner_mu;
Collector* g_owner = nullptr;

std::string json_escaped(const std::string& s) {
  std::ostringstream os;
  trace::write_json_escaped(os, s);
  return os.str();
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

long rss_kb() {
#if defined(__linux__)
  // /proc/self/statm field 2 is resident pages.
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return -1;
  long size = 0, resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (got != 2) return -1;
  const long page = sysconf(_SC_PAGESIZE);
  return resident * (page > 0 ? page : 4096) / 1024;
#else
  return -1;
#endif
}

const char* const kCounterNames[kNumCounters] = {
    "job_ns",
    "jobs_run",
};

void AtomicHist::add(std::uint64_t v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t m = min_.load(std::memory_order_relaxed);
  while (v < m && !min_.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
  }
  m = max_.load(std::memory_order_relaxed);
  while (v > m && !max_.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
  }
  const int w = std::bit_width(v);
  const std::size_t i =
      static_cast<std::size_t>(w >= trace::Histogram::kBuckets ? trace::Histogram::kBuckets - 1 : w);
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
}

trace::Histogram AtomicHist::snapshot() const {
  trace::Histogram h;
  h.count = count_.load(std::memory_order_relaxed);
  h.sum = sum_.load(std::memory_order_relaxed);
  h.min = h.count ? min_.load(std::memory_order_relaxed) : 0;
  h.max = max_.load(std::memory_order_relaxed);
  for (int i = 0; i < trace::Histogram::kBuckets; ++i) {
    h.buckets[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  return h;
}

std::vector<std::pair<int, Span>> HostTrace::merged() const {
  // Each thread's span list is already ordered by end time (rings are
  // filled in destruction order), so a k-way merge keyed by
  // (t1_ns, thread index) yields one global chronological timeline.
  struct Head {
    std::int64_t t1;
    int thread;
    std::size_t pos;
  };
  auto later = [](const Head& a, const Head& b) {
    return a.t1 != b.t1 ? a.t1 > b.t1 : a.thread > b.thread;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(later)> heads(later);
  for (std::size_t t = 0; t < threads.size(); ++t) {
    if (!threads[t].spans.empty()) {
      heads.push(Head{threads[t].spans[0].t1_ns, static_cast<int>(t), 0});
    }
  }
  std::vector<std::pair<int, Span>> out;
  out.reserve(static_cast<std::size_t>(spans_total));
  while (!heads.empty()) {
    const Head h = heads.top();
    heads.pop();
    const auto& spans = threads[static_cast<std::size_t>(h.thread)].spans;
    out.emplace_back(h.thread, spans[h.pos]);
    if (h.pos + 1 < spans.size()) {
      heads.push(Head{spans[h.pos + 1].t1_ns, h.thread, h.pos + 1});
    }
  }
  return out;
}

struct Collector::Registry {
  std::uint64_t gen = 0;
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadRing>> rings;
  std::vector<std::string> labels;
};

struct Collector::Heartbeat {
  std::ofstream file;
  std::ostream* out = &std::cerr;
  std::mutex out_mu;  ///< serializes the heartbeat thread vs. the final record

  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::thread thread;
};

std::atomic<Collector*> Collector::active_{nullptr};

Collector::Collector(Config cfg) : cfg_(std::move(cfg)) {
  t0_ns_ = now_ns();
  reg_ = std::make_unique<Registry>();
  reg_->gen = g_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  hb_ = std::make_unique<Heartbeat>();
  if (!cfg_.progress_path.empty()) {
    hb_->file.open(cfg_.progress_path, std::ios::binary);
    if (hb_->file) hb_->out = &hb_->file;
  }
  if (cfg_.progress_period_s > 0) {
    hb_->thread = std::thread([this] { heartbeat_main(); });
  }
}

Collector::~Collector() {
  if (hb_ && hb_->thread.joinable()) {
    {
      std::lock_guard<std::mutex> lk(hb_->mu);
      hb_->stop = true;
    }
    hb_->cv.notify_all();
    hb_->thread.join();
  }
}

void Collector::heartbeat_main() {
  std::unique_lock<std::mutex> lk(hb_->mu);
  const auto period = std::chrono::duration<double>(cfg_.progress_period_s);
  while (!hb_->stop) {
    hb_->cv.wait_for(lk, period);
    if (hb_->stop) break;
    lk.unlock();
    emit_heartbeat(/*final_record=*/false);
    lk.lock();
  }
}

void Collector::enable(Config cfg) {
  shutdown();
  std::lock_guard<std::mutex> lk(g_owner_mu);
  delete g_owner;
  g_owner = new Collector(std::move(cfg));
  active_.store(g_owner, std::memory_order_release);
}

void Collector::shutdown() {
  Collector* c = active_.exchange(nullptr, std::memory_order_acq_rel);
  if (!c) return;
  if (c->hb_->thread.joinable()) {
    {
      std::lock_guard<std::mutex> lk(c->hb_->mu);
      c->hb_->stop = true;
    }
    c->hb_->cv.notify_all();
    c->hb_->thread.join();
  }
  // One guaranteed final record: a run shorter than the period still
  // produces a heartbeat, and consumers can key on "final":true.
  if (c->cfg_.progress_period_s > 0) c->emit_heartbeat(/*final_record=*/true);
}

ThreadRing& Collector::ring() {
  if (t_ring != nullptr && t_gen == reg_->gen) return *t_ring;
  std::lock_guard<std::mutex> lk(reg_->mu);
  reg_->rings.push_back(std::make_unique<ThreadRing>(cfg_.ring_capacity));
  reg_->labels.emplace_back();
  t_ring = reg_->rings.back().get();
  t_index = static_cast<int>(reg_->rings.size()) - 1;
  t_gen = reg_->gen;
  return *t_ring;
}

void Collector::label_thread(const std::string& label) {
  ring();  // ensure this thread is registered
  std::lock_guard<std::mutex> lk(reg_->mu);
  reg_->labels[static_cast<std::size_t>(t_index)] = label;
}

void Collector::pool_begin(std::size_t jobs_total, int workers) {
  pool_total_.store(jobs_total, std::memory_order_relaxed);
  pool_done_.store(0, std::memory_order_relaxed);
  pool_workers_.store(workers, std::memory_order_relaxed);
  for (auto& b : worker_busy_) b.store(0, std::memory_order_relaxed);
}

void Collector::pool_worker_state(int worker, bool busy) {
  if (worker >= 0 && worker < kMaxTrackedWorkers) {
    worker_busy_[static_cast<std::size_t>(worker)].store(busy ? 1 : 0,
                                                         std::memory_order_relaxed);
  }
}

double Collector::wall_seconds() const {
  return static_cast<double>(now_ns() - t0_ns_) * 1e-9;
}

HostTrace Collector::harvest() {
  HostTrace out;
  {
    std::lock_guard<std::mutex> lk(reg_->mu);
    out.threads.reserve(reg_->rings.size());
    for (std::size_t i = 0; i < reg_->rings.size(); ++i) {
      const ThreadRing& r = *reg_->rings[i];
      HostThread t;
      t.label = reg_->labels[i];
      t.spans = r.spans();
      t.dropped = r.dropped();
      for (int c = 0; c < kNumCounters; ++c) {
        t.counters[static_cast<std::size_t>(c)] = r.counter(static_cast<Counter>(c));
      }
      out.spans_total += t.spans.size();
      out.dropped_total += t.dropped;
      out.threads.push_back(std::move(t));
    }
  }
  out.cache_hit_ns = cache_hit_.snapshot();
  out.cache_miss_ns = cache_miss_.snapshot();
  out.pool_jobs_total = pool_total_.load(std::memory_order_relaxed);
  out.pool_jobs_done = pool_done_.load(std::memory_order_relaxed);
  out.pool_workers = pool_workers_.load(std::memory_order_relaxed);
  out.wall_seconds = wall_seconds();
  out.rss_kb = telemetry::rss_kb();
  return out;
}

void Collector::emit_heartbeat(bool final_record) {
  const double wall = wall_seconds();
  const std::size_t total = pool_total_.load(std::memory_order_relaxed);
  const std::size_t done = pool_done_.load(std::memory_order_relaxed);
  const int workers = pool_workers_.load(std::memory_order_relaxed);
  int busy = 0;
  std::string state;
  const int tracked = workers < kMaxTrackedWorkers ? workers : kMaxTrackedWorkers;
  for (int w = 0; w < tracked; ++w) {
    const bool b = worker_busy_[static_cast<std::size_t>(w)].load(std::memory_order_relaxed) != 0;
    busy += b ? 1 : 0;
    state += b ? 'R' : 'I';
  }
  const double per_min = wall > 0 ? static_cast<double>(done) / wall * 60.0 : 0.0;
  // ETA from the observed rate; -1 until at least one job has finished.
  const double eta =
      (done > 0 && total > done) ? wall / static_cast<double>(done) * static_cast<double>(total - done)
                                 : (total > done ? -1.0 : 0.0);
  const trace::Histogram hit = cache_hit_.snapshot();
  const trace::Histogram miss = cache_miss_.snapshot();
  std::uint64_t spans = 0, dropped = 0;
  {
    std::lock_guard<std::mutex> lk(reg_->mu);
    for (const auto& r : reg_->rings) {
      spans += r->spans_recorded();
      dropped += r->dropped();
    }
  }

  char num[64];
  std::string line = "{\"type\":\"heartbeat\",\"job\":\"" + json_escaped(cfg_.job_name) + "\"";
  auto add_u = [&](const char* k, std::uint64_t v) {
    std::snprintf(num, sizeof num, ",\"%s\":%llu", k, static_cast<unsigned long long>(v));
    line += num;
  };
  auto add_d = [&](const char* k, double v) {
    std::snprintf(num, sizeof num, ",\"%s\":%.6g", k, v);
    line += num;
  };
  add_u("seq", hb_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  add_d("wall_s", wall);
  add_u("jobs_total", total);
  add_u("jobs_done", done);
  add_u("workers", static_cast<std::uint64_t>(workers > 0 ? workers : 0));
  add_u("workers_busy", static_cast<std::uint64_t>(busy));
  line += ",\"worker_state\":\"" + state + "\"";
  add_d("jobs_per_min", per_min);
  add_d("eta_s", eta);
  add_u("cache_hits", hit.count);
  add_u("cache_misses", miss.count);
  add_u("spans", spans);
  add_u("spans_dropped", dropped);
  std::snprintf(num, sizeof num, ",\"rss_kb\":%ld", telemetry::rss_kb());
  line += num;
  line += final_record ? ",\"final\":true}" : ",\"final\":false}";

  std::lock_guard<std::mutex> lk(hb_->out_mu);
  *hb_->out << line << '\n';
  hb_->out->flush();
}

}  // namespace alb::telemetry
