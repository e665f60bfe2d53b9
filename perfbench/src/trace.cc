// Traced run: replays a workload in-process through the public functions
// of each layer, in the order Server::Execute and its callers use them,
// and times the calls from here. Spans come from this file only; the
// program itself is not instrumented.
//
// Stages, each on the workload's own graph and request stream:
//   1. set-up: decomposition, both index builds, bundle save, verified open;
//   2. serial replay of the open-loop stream with spans (frame decode,
//      snapshot pin, memo, retrieval, SCS, memo insert, encode), then the
//      same requests with spans off: the tracing overhead;
//   3. kernel sweep: a seeded sample of the stream's keys through every
//      retrieval path and every SCS kernel;
//   4. scheduler replay: the open-loop stream pushed at its real rate
//      through TaskScheduler with the daemon's worker count, while a
//      SnapshotManager applies the writer's batches (queue wait, pin cost,
//      replay latency);
//   5. maintenance replay: update batches through DynamicDeltaIndex and the
//      publish-time exports and index builds.
#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "abcore/offsets.h"
#include "common.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "core/maintenance.h"
#include "core/query_engine.h"
#include "core/query_scratch.h"
#include "core/scs_auto.h"
#include "core/scs_common.h"
#include "graph/bipartite_graph.h"
#include "graph/graph_io.h"
#include "io/index_bundle.h"
#include "serve/frame.h"
#include "serve/memo.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/snapshot.h"
#include "workload.h"

namespace perfbench {

namespace {

using abcs::serve::MemoValue;
using abcs::serve::WireMethod;
using abcs::serve::WireRequest;
using abcs::serve::WireResponse;

struct Span {
  const char* name;
  uint64_t request;  ///< request id; 0 outside the request replays
  int64_t parent;    ///< index of the parent span, -1 for a root
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span log, written out once at exit.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(1 << 19);
  }
  bool on = true;

  int64_t Open(const char* name, uint64_t request, int64_t parent) {
    if (!on) return -1;
    spans_.push_back({name, request, parent, Clock::now(), {}});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t id) {
    if (id >= 0) spans_[id].end = Clock::now();
  }
  double Micros(int64_t id) const {
    return id < 0 ? 0.0 : MicrosBetween(spans_[id].start, spans_[id].end);
  }

  /// Median duration (µs) of every span called `name`.
  double MedianUs(const std::string& name) const {
    std::vector<double> v;
    for (const Span& s : spans_) {
      if (name == s.name) v.push_back(MicrosBetween(s.start, s.end));
    }
    return Percentile(v, 50);
  }

  /// Self time per span name: duration minus the time its children cover.
  std::map<std::string, std::pair<uint64_t, double>> SelfTimes() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += MicrosBetween(s.start, s.end);
    }
    std::map<std::string, std::pair<uint64_t, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& slot = out[spans_[i].name];
      ++slot.first;
      slot.second += MicrosBetween(spans_[i].start, spans_[i].end) - child[i];
    }
    return out;
  }

  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "span\tname\tstart_us\tend_us\tparent\trequest\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%.3f\t%.3f\t%lld\t%llu\n", i, s.name,
                   MicrosBetween(origin_, s.start), MicrosBetween(origin_, s.end),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times one library call as a span; just the call without a tracer or
/// with tracing off.
template <typename F>
void Traced(Tracer* t, const char* name, uint64_t request, int64_t parent,
            F&& f) {
  if (t == nullptr || !t->on) {
    f();
    return;
  }
  const int64_t id = t->Open(name, request, parent);
  f();
  t->Close(id);
}

struct Worker {
  abcs::QueryScratch scratch;
  abcs::ScsWorkspace workspace;
  abcs::Subgraph community;
  abcs::ScsResult scs;
};

abcs::ScsAlgo AlgoOf(uint8_t method) {
  switch (method) {
    case kScsPeel:
      return abcs::ScsAlgo::kPeel;
    case kScsExpand:
      return abcs::ScsAlgo::kExpand;
    case kScsBinary:
      return abcs::ScsAlgo::kBinary;
    default:
      return abcs::ScsAlgo::kAuto;
  }
}

const char* RetrievalSpan(uint8_t method) {
  switch (method) {
    case kOnline:
      return "core.online_query.query";
    case kBicore:
      return "core.bicore_index.query";
    default:
      return "core.delta_index.query";
  }
}

const char* ScsSpan(abcs::ScsAlgo algo) {
  switch (algo) {
    case abcs::ScsAlgo::kPeel:
      return "core.scs_peel.query";
    case abcs::ScsAlgo::kExpand:
      return "core.scs_expand.query";
    case abcs::ScsAlgo::kBinary:
      return "core.scs_binary.query";
    default:
      return "core.scs_auto.query";
  }
}

const abcs::QueryEngine& EngineOf(const abcs::serve::Snapshot& snap,
                                  uint8_t method) {
  switch (method) {
    case kOnline:
      return snap.online_engine();
    case kBicore:
      return snap.bicore_engine();
    default:
      return snap.delta_engine();
  }
}

/// The worker half of the daemon's request path: memo lookup, retrieval,
/// SCS, memo insert — the calls Server::WorkerLoop and Server::Execute
/// make, in their order.
void ExecuteQuery(const WireRequest& req, const abcs::serve::Snapshot& snap,
                  abcs::serve::QueryMemo& memo, Worker& w, Tracer* t,
                  uint64_t rid, int64_t parent, WireResponse* resp) {
  const abcs::BipartiteGraph& g = snap.graph();
  const uint8_t method = static_cast<uint8_t>(req.method);
  const abcs::VertexId q = req.lower_side ? g.NumUpper() + req.q : req.q;
  MemoValue value;
  bool hit = false;
  Traced(t, "serve.memo.lookup", rid, parent, [&] {
    hit = memo.Lookup(req.method, req.alpha, req.beta, q, &value, snap.epoch());
  });
  resp->epoch = snap.epoch();
  if (hit) {
    resp->found = value.found;
    resp->num_edges = value.num_edges;
    resp->result_edges = value.result_edges;
    resp->significance = value.significance;
    resp->kernel = value.kernel;
    resp->memo_hit = true;
    return;
  }
  const abcs::QueryRequest qr{q, req.alpha, req.beta};
  Traced(t, RetrievalSpan(method), rid, parent, [&] {
    EngineOf(snap, method).Query(qr, w.scratch, &w.community);
  });
  resp->num_edges = static_cast<uint32_t>(w.community.edges.size());
  resp->found = !w.community.Empty();
  if (IsScs(method)) {
    abcs::ScsStats stats;
    Traced(t, ScsSpan(AlgoOf(method)), rid, parent, [&] {
      abcs::ScsQueryInto(g, w.community, q, req.alpha, req.beta,
                         AlgoOf(method), abcs::ScsOptions{}, &w.scs, &stats,
                         &w.scratch, &w.workspace);
    });
    resp->found = w.scs.found;
    resp->result_edges = static_cast<uint32_t>(w.scs.community.edges.size());
    resp->significance = w.scs.significance;
    resp->kernel = static_cast<uint8_t>(stats.algo_used);
  }
  value = MemoValue{resp->found, resp->num_edges, resp->result_edges,
                    resp->kernel, resp->significance};
  Traced(t, "serve.memo.insert", rid, parent, [&] {
    memo.Insert(req.method, req.alpha, req.beta, q, g, w.community, value,
                snap.epoch());
  });
}

WireRequest ToWire(const Request& r) {
  WireRequest w;
  w.type = abcs::serve::MessageType::kQuery;
  w.method = static_cast<WireMethod>(r.method);
  w.lower_side = r.lower;
  w.q = r.q;
  w.alpha = r.alpha;
  w.beta = r.beta;
  return w;
}

class TraceRun {
 public:
  TraceRun(Workload& w, const TraceOptions& opt)
      : w_(w), opt_(opt), origin_(Clock::now()), tracer_(origin_) {}

  int Run();

 private:
  bool Setup();
  double SerialReplay(bool spans, uint64_t* count);
  void KernelSweep();
  void SchedulerReplay();
  void MaintenanceReplay();
  void Report();

  Workload& w_;
  const TraceOptions& opt_;
  Clock::time_point origin_;
  Tracer tracer_;
  MetricWriter m_;
  bool correct_ = true;

  abcs::BipartiteGraph graph_;
  std::unique_ptr<abcs::IndexBundle> bundle_;
  std::unique_ptr<abcs::serve::SnapshotManager> snapshots_;
};

bool TraceRun::Setup() {
  const std::string graph_path = opt_.workdir + "/trace_graph.txt";
  const std::string bundle_path = opt_.workdir + "/trace.bundle";
  if (!w_.WriteEdgeList(graph_path)) return false;
  abcs::Status st;
  auto ms = [&](int64_t id) { return tracer_.Micros(id) / 1000.0; };
  Traced(&tracer_, "graph.load", 0, -1, [&] {
    st = abcs::LoadEdgeList(graph_path, &graph_, /*zero_based=*/true);
  });
  if (!st.ok()) return false;
  // The same calls, in the same order and with the same thread settings,
  // as `abcs index`.
  abcs::BicoreDecomposition decomp;
  const int64_t dec = tracer_.Open("abcore.offsets.decompose", 0, -1);
  decomp = abcs::ComputeBicoreDecompositionParallel(graph_, 0);
  tracer_.Close(dec);
  abcs::DeltaIndex delta;
  const int64_t db = tracer_.Open("core.delta_index.build", 0, -1);
  delta = abcs::DeltaIndex::Build(graph_, &decomp);
  tracer_.Close(db);
  abcs::BicoreIndex bicore;
  const int64_t bb = tracer_.Open("core.bicore_index.build", 0, -1);
  bicore = abcs::BicoreIndex::Build(graph_, &decomp);
  tracer_.Close(bb);
  abcs::SaveBundleOptions save;
  save.compression = w_.spec().compress ? abcs::BundleCompression::kMax
                                        : abcs::BundleCompression::kNone;
  const int64_t sv = tracer_.Open("io.index_bundle.save", 0, -1);
  st = abcs::SaveIndexBundle(graph_, decomp, delta, bicore, bundle_path, save);
  tracer_.Close(sv);
  if (!st.ok()) return false;
  const int64_t op = tracer_.Open("io.index_bundle.open", 0, -1);
  st = abcs::OpenIndexBundle(bundle_path, &bundle_);  // verified open
  tracer_.Close(op);
  if (!st.ok()) return false;
  m_.Add("abcore.offsets.decompose_ms", ms(dec), "ms");
  m_.Add("core.delta_index.build_ms", ms(db), "ms");
  m_.Add("core.bicore_index.build_ms", ms(bb), "ms");
  m_.Add("io.index_bundle.save_ms", ms(sv), "ms");
  m_.Add("io.index_bundle.open_ms", ms(op), "ms");

  const abcs::IndexBundle& b = *bundle_;
  snapshots_ = std::make_unique<abcs::serve::SnapshotManager>(
      b.graph(), &b.delta_index(), &b.bicore_index(), &b.decomposition(),
      abcs::serve::SnapshotManagerOptions{});
  return true;
}

/// Replays the open-loop stream serially (no queueing) through the
/// daemon's per-request calls. Stops after ~2 s, 50,000 requests or the
/// whole open-loop stream, whichever comes first; `*count` fixes the
/// length so the spans-off pass repeats it.
double TraceRun::SerialReplay(bool spans, uint64_t* count) {
  const uint64_t n_open = static_cast<uint64_t>(
      w_.spec().open_rate_qps * opt_.seconds * kOpenShare);
  const uint64_t limit = *count ? *count : std::min<uint64_t>(n_open, 50000);
  tracer_.on = spans;
  abcs::serve::QueryMemo memo;
  memo.SetEpoch(snapshots_->Epoch());
  Worker worker;
  std::vector<std::byte> wire_in;
  std::vector<std::byte> framed;
  abcs::serve::FrameReader reader;
  const Clock::time_point t0 = Clock::now();
  uint64_t i = 0;
  for (; i < limit; ++i) {
    if (*count == 0 && SecondsSince(t0) > 2.0) break;
    const uint64_t rid = i + 1;
    const WireRequest sent = ToWire(w_.Make(kOpenStream, i));
    wire_in.clear();
    framed.clear();
    abcs::serve::EncodeRequest(sent, &wire_in);
    abcs::serve::AppendFrame(wire_in, &framed);
    const int64_t root = tracer_.Open("request", rid, -1);
    WireRequest req;
    bool decoded = false;
    Traced(&tracer_, "serve.protocol.decode", rid, root, [&] {
      std::span<const std::byte> payload;
      decoded = reader.Append(framed).ok() && reader.Next(&payload) &&
                abcs::serve::DecodeRequest(payload, &req).ok();
    });
    if (!decoded) correct_ = false;
    std::shared_ptr<const abcs::serve::Snapshot> snap;
    Traced(&tracer_, "serve.snapshot.pin", rid, root,
           [&] { snap = snapshots_->Current(); });
    WireResponse resp;
    ExecuteQuery(req, *snap, memo, worker, &tracer_, rid, root, &resp);
    Traced(&tracer_, "serve.protocol.encode", rid, root, [&] {
      std::vector<std::byte> payload;
      abcs::serve::EncodeResponse(resp, &payload);
      std::vector<std::byte> out;
      abcs::serve::AppendFrame(payload, &out);
    });
    tracer_.Close(root);
  }
  const double elapsed = SecondsSince(t0);
  tracer_.on = true;
  *count = i;
  return elapsed > 0 ? static_cast<double>(i) / elapsed : 0.0;
}

void TraceRun::KernelSweep() {
  // Every retrieval path and every SCS kernel on the same keys, so each
  // kernel is measured on this workload's (q, α, β) mix even where the
  // stream never sends its method.
  const std::shared_ptr<const abcs::serve::Snapshot> snap = snapshots_->Current();
  const abcs::BipartiteGraph& g = snap->graph();
  Worker w;
  std::vector<double> touched;
  std::vector<double> edges_processed;
  std::vector<double> probes;
  uint64_t auto_runs = 0;
  uint64_t auto_expand = 0;
  const Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; i < 400 && SecondsSince(t0) < 4.0; ++i) {
    const Request r = w_.Make(kSampleStream, i);
    const abcs::VertexId q = r.lower ? g.NumUpper() + r.q : r.q;
    const abcs::QueryRequest qr{q, r.alpha, r.beta};
    for (const uint8_t method : {kOnline, kBicore, kDelta}) {
      abcs::QueryStats qs;
      Traced(&tracer_, RetrievalSpan(method), 0, -1, [&] {
        EngineOf(*snap, method).Query(qr, w.scratch, &w.community, &qs);
      });
      if (method == kDelta) touched.push_back(static_cast<double>(qs.touched_arcs));
    }
    for (const abcs::ScsAlgo algo : {abcs::ScsAlgo::kAuto, abcs::ScsAlgo::kPeel,
                                     abcs::ScsAlgo::kExpand, abcs::ScsAlgo::kBinary}) {
      abcs::ScsStats stats;
      Traced(&tracer_, ScsSpan(algo), 0, -1, [&] {
        abcs::ScsQueryInto(g, w.community, q, r.alpha, r.beta, algo,
                           abcs::ScsOptions{}, &w.scs, &stats, &w.scratch,
                           &w.workspace);
      });
      if (algo == abcs::ScsAlgo::kAuto) {
        ++auto_runs;
        auto_expand += stats.algo_used == abcs::ScsAlgo::kExpand;
        edges_processed.push_back(static_cast<double>(stats.edges_processed));
        probes.push_back(static_cast<double>(stats.incremental_probes));
      }
    }
  }
  m_.Add("core.delta_index.touched_arcs", Mean(touched), "count");
  m_.Add("core.scs.edges_processed", Mean(edges_processed), "count");
  m_.Add("core.scs.incremental_probes", Mean(probes), "count");
  m_.Add("core.scs_auto.expand_share",
         auto_runs ? static_cast<double>(auto_expand) / auto_runs : 0.0, "ratio");
  m_.Add("core.scs_auto.expand_share_base", static_cast<double>(auto_runs), "count");
  for (const char* name :
       {"core.online_query.query", "core.bicore_index.query",
        "core.delta_index.query", "core.scs_auto.query", "core.scs_peel.query",
        "core.scs_expand.query", "core.scs_binary.query"}) {
    m_.Add(std::string(name) + "_us", tracer_.MedianUs(name), "us");
  }
}

void TraceRun::SchedulerReplay() {
  // The open-loop stream at its real rate, through the daemon's scheduler
  // and worker count, beside a SnapshotManager applying the writer's
  // batches at the writer's cadence (live_updates only).
  const WorkloadSpec& spec = w_.spec();
  const unsigned workers = spec.daemon_threads;
  const double window_s = std::min(5.0, opt_.seconds * kOpenShare);
  const uint64_t n = static_cast<uint64_t>(spec.open_rate_qps * window_s);
  const uint64_t n_batches =
      spec.batch_ops
          ? static_cast<uint64_t>(window_s * 1000.0 / spec.batch_period_ms)
          : 0;

  // A fresh manager over the opened bundle, with its writer running and the
  // memo invalidated at each publish exactly as the daemon wires them.
  const abcs::IndexBundle& b = *bundle_;
  abcs::serve::SnapshotManager mgr(b.graph(), &b.delta_index(),
                                   &b.bicore_index(), &b.decomposition(),
                                   abcs::serve::SnapshotManagerOptions{});
  abcs::serve::QueryMemo memo;
  memo.SetEpoch(mgr.Epoch());
  mgr.set_publish_hook([&memo](const abcs::serve::Snapshot& snap,
                               const abcs::UpdateSummary& summary,
                               const std::vector<uint8_t>& touched) {
    memo.AdvanceEpoch(snap.epoch(), summary.topology_changed,
                      summary.delta_changed, touched);
  });
  if (!mgr.Start().ok()) {
    correct_ = false;
    return;
  }

  struct Task {
    uint64_t i = 0;
    Clock::time_point due;
    Clock::time_point pushed;
    std::shared_ptr<const abcs::serve::Snapshot> snap;
  };
  abcs::serve::TaskScheduler<Task> sched(workers, 1 << 20);
  std::vector<std::vector<double>> waits(workers), lats(workers);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < workers; ++t) {
    pool.emplace_back([&, t] {
      Worker w;
      Task task;
      while (sched.Pop(t, &task)) {
        const Clock::time_point picked = Clock::now();
        WireResponse resp;
        ExecuteQuery(ToWire(w_.Make(kOpenStream, task.i)), *task.snap, memo, w,
                     nullptr, 0, -1, &resp);
        task.snap.reset();
        const Clock::time_point done = Clock::now();
        waits[t].push_back(MicrosBetween(task.pushed, picked));
        lats[t].push_back(MicrosBetween(task.due, done));
      }
    });
  }

  UpdateLog log(w_, spec.batch_ops);
  std::atomic<uint64_t> acks{0};
  uint64_t sent_ops = 0;
  std::vector<double> pins;
  pins.reserve(n);
  const Clock::time_point t0 = Clock::now();
  uint64_t i = 0;
  uint64_t batch = 0;
  while (i < n || batch < n_batches) {
    const Clock::time_point due_i =
        t0 + std::chrono::nanoseconds(static_cast<int64_t>(1e9 * i / spec.open_rate_qps));
    const Clock::time_point due_b =
        t0 + std::chrono::nanoseconds(static_cast<int64_t>(1e6 * spec.batch_period_ms * batch));
    const bool read_next = i < n && (batch >= n_batches || due_i <= due_b);
    std::this_thread::sleep_until(read_next ? due_i : due_b);
    if (!read_next) {
      for (const Update& u : log.NextBatch()) {
        ++sent_ops;
        mgr.Enqueue(static_cast<abcs::serve::UpdateOp>(u.op), u.u, u.v, u.w,
                    [&acks](abcs::serve::WireStatus, uint64_t) { ++acks; });
      }
      ++batch;
      continue;
    }
    Task task;
    task.i = i;
    task.due = due_i;
    const Clock::time_point p0 = Clock::now();
    task.snap = mgr.Current();  // the admission-time epoch pin
    task.pushed = Clock::now();
    pins.push_back(MicrosBetween(p0, task.pushed));
    if (!sched.Push(std::move(task), static_cast<unsigned>(i % spec.read_conns))) {
      correct_ = false;
    }
    ++i;
  }
  sched.Close();
  for (std::thread& th : pool) th.join();
  mgr.Drain();
  if (acks.load() != sent_ops) correct_ = false;

  std::vector<double> all_waits, all_lats;
  for (unsigned t = 0; t < workers; ++t) {
    all_waits.insert(all_waits.end(), waits[t].begin(), waits[t].end());
    all_lats.insert(all_lats.end(), lats[t].begin(), lats[t].end());
  }
  m_.Add("serve.scheduler.queue_wait_us_p50", Percentile(all_waits, 50), "us");
  m_.Add("serve.scheduler.queue_wait_us_p99", Percentile(all_waits, 99), "us");
  m_.Add("serve.snapshot.pin_us", Mean(pins), "us");
  const double replay_p50_us = Percentile(all_lats, 50);
  m_.Add("serve.replay_p50_us", replay_p50_us, "us");
  m_.Add("serve.overhead_us", opt_.e2e_p50_ms * 1000.0 - replay_p50_us, "us");
}

void TraceRun::MaintenanceReplay() {
  // The writer's own op log on live_updates; elsewhere the same kind of
  // log, so the maintenance layer is measured on every graph shape. Runs
  // until ~4 s, at least one reweight and one churn batch.
  const abcs::IndexBundle& b = *bundle_;
  abcs::DynamicDeltaIndex dyn(b.graph(), &b.decomposition());
  const uint32_t nu = dyn.NumUpper();
  UpdateLog log(w_, /*with_ops=*/true);
  std::map<uint8_t, std::vector<double>> apply;
  abcs::BicoreDecomposition decomp;
  bool have_decomp = false;
  const Clock::time_point t0 = Clock::now();
  for (uint64_t batch = 0; batch < 3 || (batch < 200 && SecondsSince(t0) < 4.0);
       ++batch) {
    for (const Update& u : log.NextBatch()) {
      if (u.op == kCommit) break;
      static const char* const kApply[] = {"core.maintenance.apply.insert",
                                           "core.maintenance.apply.remove",
                                           "core.maintenance.apply.reweight"};
      abcs::Status st;
      const int64_t id = tracer_.Open(kApply[u.op], 0, -1);
      switch (u.op) {
        case kInsert:
          st = dyn.InsertEdge(u.u, nu + u.v, u.w);
          break;
        case kRemove:
          st = dyn.RemoveEdge(u.u, nu + u.v);
          break;
        default:
          st = dyn.UpdateWeight(u.u, nu + u.v, u.w);
      }
      tracer_.Close(id);
      apply[u.op].push_back(tracer_.Micros(id));
      if (!st.ok()) correct_ = false;
    }
    // Publish: the same exports and builds SnapshotManager::Publish runs.
    const abcs::UpdateSummary summary = dyn.DrainSummary();
    std::shared_ptr<abcs::BipartiteGraph> g;
    Traced(&tracer_, "core.maintenance.export_graph", 0, -1, [&] {
      g = std::make_shared<abcs::BipartiteGraph>(dyn.ExportGraph());
    });
    if (summary.topology_changed || summary.delta_changed || !have_decomp) {
      Traced(&tracer_, "core.maintenance.export_decomp", 0, -1,
             [&] { decomp = dyn.ExportDecomposition(); });
      have_decomp = true;
    }
    Traced(&tracer_, "core.delta_index.publish_build", 0, -1,
           [&] { (void)abcs::DeltaIndex::Build(*g, &decomp, 1); });
    Traced(&tracer_, "core.bicore_index.publish_build", 0, -1,
           [&] { (void)abcs::BicoreIndex::Build(*g, &decomp, 1); });
  }
  m_.Add("core.maintenance.apply_us.insert", Percentile(apply[kInsert], 50), "us");
  m_.Add("core.maintenance.apply_us.remove", Percentile(apply[kRemove], 50), "us");
  m_.Add("core.maintenance.apply_us.reweight", Percentile(apply[kReweight], 50), "us");
  m_.Add("core.maintenance.export_graph_ms",
         tracer_.MedianUs("core.maintenance.export_graph") / 1000.0, "ms");
  m_.Add("core.maintenance.export_decomp_ms",
         tracer_.MedianUs("core.maintenance.export_decomp") / 1000.0, "ms");
  m_.Add("core.delta_index.publish_build_ms",
         tracer_.MedianUs("core.delta_index.publish_build") / 1000.0, "ms");
  m_.Add("core.bicore_index.publish_build_ms",
         tracer_.MedianUs("core.bicore_index.publish_build") / 1000.0, "ms");
}

int TraceRun::Run() {
  if (!Setup()) {
    std::fprintf(stderr, "trace set-up failed\n");
    return 1;
  }
  uint64_t count = 0;
  const double qps_on = SerialReplay(true, &count);
  const double qps_off = SerialReplay(false, &count);
  m_.Add("serve.protocol.decode_us", tracer_.MedianUs("serve.protocol.decode"), "us");
  m_.Add("serve.protocol.encode_us", tracer_.MedianUs("serve.protocol.encode"), "us");
  m_.Add("serve.memo.lookup_us", tracer_.MedianUs("serve.memo.lookup"), "us");
  m_.Add("serve.memo.insert_us", tracer_.MedianUs("serve.memo.insert"), "us");
  m_.Add("trace.replay_requests", static_cast<double>(count), "count");
  m_.Add("trace.replay_qps_spans_on", qps_on, "1/s");
  m_.Add("trace.replay_qps_spans_off", qps_off, "1/s");
  m_.Add("trace.overhead_ratio", qps_on > 0 ? qps_off / qps_on - 1.0 : 0.0, "ratio");
  KernelSweep();
  SchedulerReplay();
  MaintenanceReplay();
  Report();
  return 0;
}

void TraceRun::Report() {
  const std::string spans = opt_.workdir + "/spans.tsv";
  if (!tracer_.Write(spans)) correct_ = false;
  std::fprintf(stderr, "# self time per layer (%s, seed %llu):\n",
               w_.spec().name.c_str(), static_cast<unsigned long long>(w_.seed()));
  std::fprintf(stderr, "#   %-36s %10s %12s\n", "span", "count", "self_ms");
  for (const auto& [name, cs] : tracer_.SelfTimes()) {
    std::fprintf(stderr, "#   %-36s %10llu %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(cs.first), cs.second / 1000.0);
  }
  std::printf("{\"correct\": %s, \"attempted\": 1, \"failed\": 0, \"metrics\": %s}\n",
              correct_ ? "true" : "false", m_.Json().c_str());
  std::fflush(stdout);
}

}  // namespace

int RunTrace(const TraceOptions& opt) {
  const WorkloadSpec* spec = FindWorkload(opt.workload);
  if (spec == nullptr) return 2;
  Workload w(*spec, opt.seed);
  TraceRun run(w, opt);
  return run.Run();
}

}  // namespace perfbench
