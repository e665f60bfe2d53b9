// End-to-end run: builds the bundle with `abcs index`, forks `abcs serve`,
// drives it over TCP from this one process (open-loop phase, then
// closed-loop phase, with a writer connection beside them), checks every
// answer, and reconciles the daemon's own totals at SIGTERM.
#include "e2e.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check.h"
#include "common.h"
#include "oracle.h"
#include "wire.h"
#include "workload.h"

namespace perfbench {

namespace {

/// A forked child that is killed and reaped on every exit path.
class Child {
 public:
  Child() = default;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child() { Kill(); }

  /// Starts argv[0] with stdout and stderr sent to `log`. The child dies
  /// with this process (PR_SET_PDEATHSIG), so a crash here orphans nothing.
  bool Spawn(const std::vector<std::string>& argv, const std::string& log) {
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, 1);
        dup2(fd, 2);
        close(fd);
      }
      std::vector<char*> args;
      for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
      args.push_back(nullptr);
      execv(args[0], args.data());
      _exit(127);
    }
    return true;
  }

  pid_t pid() const { return pid_; }

  /// Waits up to `seconds` for exit; returns the exit status, or -1 after
  /// a timeout (the child is then killed).
  int Wait(double seconds) {
    const Clock::time_point t0 = Clock::now();
    while (pid_ > 0) {
      int status = 0;
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
      }
      if (r < 0 && errno != EINTR) {
        pid_ = -1;
        return -1;
      }
      if (SecondsSince(t0) > seconds) break;
      usleep(2000);
    }
    Kill();
    return -1;
  }

  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

int ConnectLocal(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool WriteAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool ReadExact(int fd, uint8_t* buf, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = read(fd, buf + off, len - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

/// VmHWM of `pid` in kB, or 0.
double PeakRssKb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6);
  }
  return 0.0;
}

/// Parses `key=value` fields of the log line that starts with `prefix`.
std::map<std::string, uint64_t> ParseTotals(const std::string& log,
                                            const std::string& prefix) {
  std::map<std::string, uint64_t> out;
  std::istringstream in(log);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::istringstream fields(line.substr(prefix.size()));
    std::string kv;
    while (fields >> kv) {
      const std::size_t eq = kv.find('=');
      if (eq != std::string::npos) {
        out[kv.substr(0, eq)] = std::strtoull(kv.c_str() + eq + 1, nullptr, 10);
      }
    }
  }
  return out;
}

constexpr int kProbeCommits = 1000;

enum class Kind : uint8_t { kOpen, kClosed, kVerify, kOp, kCommit };

struct Pending {
  Kind kind;
  Request req;          ///< kOpen, kClosed, kVerify
  Update update;        ///< kOp, kCommit
  bool publishes = false;  ///< a commit closing a batch that has ops
  bool sample = false;  ///< compare with the oracle field by field
  Clock::time_point due;
  Clock::time_point sent;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<Pending> pending;
};

class LoadRun {
 public:
  LoadRun(Workload& w, const E2EOptions& opt)
      : w_(w), opt_(opt), checker_(w.num_upper()) {}

  int Run();

 private:
  bool Setup();
  bool Connect();
  /// Request i of `stream`; a seeded one in eight is sampled for the
  /// oracle, up to 200 per run.
  Pending Query(Kind kind, uint64_t stream, uint64_t i, Clock::time_point due);
  /// Sends `u` on the writer connection.
  void SendUpdate(const Update& u, bool publishes, Clock::time_point due);
  void Send(Conn& c, Pending p);
  void FlushAll();
  bool Pump(Clock::time_point until);
  void OnResponse(Conn& c, const wire::Response& resp, Clock::time_point now);
  bool DriveLoad();
  /// Pumps until every request sent has its answer; false after a minute.
  bool AwaitAnswers(const char* phase);
  bool CommitProbe();
  bool Verify();
  bool Teardown();
  void Print();

  Workload& w_;
  const E2EOptions& opt_;
  Checker checker_;
  Child index_;
  Child serve_;
  uint16_t port_ = 0;
  std::vector<Conn> conns_;  ///< read connections, then the writer last
  std::string bundle_;
  std::string serve_log_;

  // Figures.
  double setup_s_ = 0.0;
  double start_to_ready_ms_ = 0.0;
  double bundle_mb_ = 0.0;
  double peak_rss_mb_ = 0.0;
  std::vector<double> open_lat_ms_;
  std::vector<double> lag_ms_;
  std::vector<double> commit_ms_;
  uint64_t closed_done_ = 0;
  double closed_window_s_ = 0.0;
  uint64_t memo_hits_ = 0;
  uint64_t query_responses_ = 0;

  // Totals seen by the generator.
  uint64_t frames_sent_ = 0;
  uint64_t ok_received_ = 0;
  uint64_t failed_ = 0;
  uint64_t update_acks_ = 0;
  uint64_t epochs_acked_ = 0;
  uint64_t nonempty_commits_sent_ = 0;
  uint64_t last_commit_epoch_ = 1;
  uint64_t max_query_epoch_ = 0;
  bool flipped_ = false;
  uint64_t samples_ = 0;

  bool closed_open_ = false;  ///< closed loop may still send
  uint64_t closed_next_ = 0;
  Clock::time_point closed_start_;
  Clock::time_point closed_end_;
  std::unique_ptr<UpdateLog> log_;
  std::unique_ptr<Oracle> verify_oracle_;
};

bool LoadRun::Setup() {
  const std::string graph = opt_.workdir + "/graph.txt";
  if (!w_.WriteEdgeList(graph)) {
    std::fprintf(stderr, "cannot write %s\n", graph.c_str());
    return false;
  }
  bundle_ = opt_.workdir + "/graph.bundle";
  serve_log_ = opt_.workdir + "/serve.log";
  const std::string port_file = opt_.workdir + "/port";

  // set-up: edge list -> bundle -> daemon answering its first ping.
  const Clock::time_point t0 = Clock::now();
  std::vector<std::string> argv = {opt_.abcs, "index", graph, bundle_};
  if (w_.spec().compress) argv.push_back("--compress=max");
  if (!index_.Spawn(argv, opt_.workdir + "/index.log") || index_.Wait(120) != 0) {
    std::fprintf(stderr, "abcs index failed (see index.log)\n");
    return false;
  }
  const Clock::time_point t_spawn = Clock::now();
  const std::vector<std::string> serve_argv = {
      opt_.abcs,     "serve",     "--bundle",
      bundle_,       "--threads", std::to_string(w_.spec().daemon_threads),
      "--port-file", port_file,   "--enable-updates"};
  if (!serve_.Spawn(serve_argv, serve_log_)) return false;
  int fd = -1;
  while (fd < 0) {
    if (SecondsSince(t_spawn) > 60) {
      std::fprintf(stderr, "abcs serve did not come up\n");
      return false;
    }
    std::ifstream pf(port_file);
    long port = 0;
    if (pf >> port && port > 0 && port < 65536) {
      port_ = static_cast<uint16_t>(port);
      fd = ConnectLocal(port_);
    }
    if (fd < 0) usleep(1000);
  }
  std::string ping;
  wire::AppendPing(&ping);
  uint8_t frame[wire::kResponseFrame];
  wire::Response resp;
  if (!WriteAll(fd, ping) || !ReadExact(fd, frame, sizeof frame) ||
      !wire::ParseResponse(frame, &resp) || resp.status != wire::kOk) {
    close(fd);
    std::fprintf(stderr, "first ping failed\n");
    return false;
  }
  const Clock::time_point t_ready = Clock::now();
  ++frames_sent_;
  ++ok_received_;
  setup_s_ = std::chrono::duration<double>(t_ready - t0).count();
  start_to_ready_ms_ =
      std::chrono::duration<double, std::milli>(t_ready - t_spawn).count();
  bundle_mb_ = static_cast<double>(FileBytes(bundle_)) / (1 << 20);
  conns_.resize(w_.spec().read_conns + 1);
  conns_[0].fd = fd;
  return Connect();
}

bool LoadRun::Connect() {
  for (Conn& c : conns_) {
    if (c.fd < 0) c.fd = ConnectLocal(port_);
    if (c.fd < 0) return false;
    fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
  return true;
}

Pending LoadRun::Query(Kind kind, uint64_t stream, uint64_t i,
                      Clock::time_point due) {
  Pending p{kind, w_.Make(stream, i), Update{}, false, false, due, due};
  p.sample = Mix64(w_.seed() * 131 + stream * 7 + i) % 8 == 0 &&
             samples_++ < 200;
  return p;
}

void LoadRun::SendUpdate(const Update& u, bool publishes,
                        Clock::time_point due) {
  const Kind kind = u.op == kCommit ? Kind::kCommit : Kind::kOp;
  if (kind == Kind::kCommit && publishes) ++nonempty_commits_sent_;
  Send(conns_.back(), Pending{kind, Request{}, u, publishes, false, due, due});
}

void LoadRun::Send(Conn& c, Pending p) {
  if (p.kind == Kind::kOp || p.kind == Kind::kCommit) {
    wire::AppendUpdate(p.update, &c.out);
  } else {
    wire::AppendQuery(p.req, &c.out);
  }
  p.sent = Clock::now();
  ++frames_sent_;
  c.pending.push_back(p);
}

void LoadRun::FlushAll() {
  for (Conn& c : conns_) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        break;
      }
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }
}

void LoadRun::OnResponse(Conn& c, const wire::Response& resp,
                        Clock::time_point now) {
  const Pending p = c.pending.front();
  c.pending.pop_front();
  if (resp.status != wire::kOk) {
    // A failed operation is counted, not judged: `correct` speaks of the
    // answers that were given.
    if (failed_++ == 0) {
      std::fprintf(stderr, "# first failed operation: status %u\n", resp.status);
    }
    return;
  }
  ++ok_received_;
  switch (p.kind) {
    case Kind::kOp:
      ++update_acks_;
      return;
    case Kind::kCommit: {
      if (p.sent < closed_start_ || p.sent >= closed_end_) {
        commit_ms_.push_back(
            std::chrono::duration<double, std::milli>(now - p.sent).count());
      }
      // A commit that applied ops publishes exactly the next epoch; an
      // empty one answers the current epoch.
      const uint64_t want = last_commit_epoch_ + (p.publishes ? 1 : 0);
      if (resp.epoch != want) {
        checker_.Fail("commit acked epoch " + std::to_string(resp.epoch) +
                      ", want " + std::to_string(want));
      }
      if (p.publishes) ++epochs_acked_;
      last_commit_epoch_ = resp.epoch;
      return;
    }
    default:
      break;
  }
  ++query_responses_;
  if (resp.memo_hit) ++memo_hits_;
  // A read cannot see an epoch whose commit was not even sent yet.
  if (resp.epoch < 1 || resp.epoch > 1 + nonempty_commits_sent_) {
    checker_.Fail("query answered from epoch " + std::to_string(resp.epoch) +
                  " beyond every commit sent");
  }
  max_query_epoch_ = std::max(max_query_epoch_, resp.epoch);
  // Static workloads answer from the seed graph, so the oracle applies to
  // every read; under live updates only the final verification does.
  Oracle* oracle = p.kind == Kind::kVerify ? verify_oracle_.get()
                   : w_.spec().batch_ops   ? nullptr
                                           : &w_.oracle();
  wire::Response r = resp;
  if (opt_.flip_significance && p.sample && oracle != nullptr && !flipped_) {
    // Deliberately wrong answer: one flipped significance bit must make
    // the run report its outputs incorrect.
    uint64_t bits = 0;
    std::memcpy(&bits, &r.significance, sizeof bits);
    bits ^= 1;
    std::memcpy(&r.significance, &bits, sizeof bits);
    flipped_ = true;
  }
  checker_.Check(p.req, r, oracle, p.sample);
  if (p.kind == Kind::kOpen) {
    open_lat_ms_.push_back(
        std::chrono::duration<double, std::milli>(now - p.due).count());
    lag_ms_.push_back(
        std::chrono::duration<double, std::milli>(p.sent - p.due).count());
  } else if (p.kind == Kind::kClosed) {
    if (now <= closed_end_) ++closed_done_;
    if (closed_open_ && now < closed_end_) {
      Send(c, Query(Kind::kClosed, kClosedStream, closed_next_++, now));
    }
  }
}

/// Reads whatever arrived (waiting at most until `until`) and handles it.
/// False on a broken connection or malformed frame.
bool LoadRun::Pump(Clock::time_point until) {
  std::vector<pollfd> fds;
  for (const Conn& c : conns_) {
    short ev = POLLIN;
    if (c.out_off < c.out.size()) ev |= POLLOUT;
    fds.push_back({c.fd, ev, 0});
  }
  const auto wait = std::max(until - Clock::now(), Clock::duration::zero());
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
  timespec ts{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
  const int n = ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (n < 0 && errno != EINTR) return false;
  if (n <= 0) return true;
  const Clock::time_point now = Clock::now();
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (fds[i].revents & (POLLERR | POLLNVAL)) return false;
    if (!(fds[i].revents & (POLLIN | POLLHUP))) continue;
    Conn& c = conns_[i];
    char buf[65536];
    for (;;) {
      const ssize_t got = read(c.fd, buf, sizeof buf);
      if (got > 0) {
        c.in.append(buf, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;  // EOF or error: the daemon dropped us
    }
    std::size_t off = 0;
    while (c.in.size() - off >= wire::kResponseFrame) {
      wire::Response resp;
      if (c.pending.empty() ||
          !wire::ParseResponse(reinterpret_cast<const uint8_t*>(c.in.data() + off),
                               &resp)) {
        checker_.Fail("malformed or unsolicited response frame");
        return false;
      }
      off += wire::kResponseFrame;
      OnResponse(c, resp, now);
    }
    c.in.erase(0, off);
  }
  FlushAll();
  return true;
}

bool LoadRun::DriveLoad() {
  const WorkloadSpec& spec = w_.spec();
  const double seconds = opt_.seconds;
  const double open_s = seconds * kOpenShare;
  const uint64_t n_open = static_cast<uint64_t>(spec.open_rate_qps * open_s);
  // The writer runs through both phases, so the closed loop measures reads
  // beside writes too; only commits sent in the open-loop phase give commit
  // latencies, since under the closed loop every core is busy and the round
  // trip would measure CPU scheduling rather than the update path.
  const uint64_t n_batches =
      spec.batch_ops
          ? static_cast<uint64_t>(seconds * 1000.0 / spec.batch_period_ms)
          : 0;
  const uint32_t reads = spec.read_conns;
  log_ = std::make_unique<UpdateLog>(w_, spec.batch_ops);

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto open_due = [&](uint64_t i) {
    return t0 + std::chrono::nanoseconds(
                    static_cast<int64_t>(1e9 * static_cast<double>(i) /
                                         spec.open_rate_qps));
  };
  auto batch_due = [&](uint64_t b) {
    return t0 + std::chrono::nanoseconds(
                    static_cast<int64_t>(1e6 * spec.batch_period_ms *
                                         static_cast<double>(b)));
  };
  closed_start_ = t0 + std::chrono::nanoseconds(static_cast<int64_t>(open_s * 1e9));
  closed_end_ = t0 + std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9));

  uint64_t next_open = 0;
  uint64_t next_batch = 0;
  bool closed_started = false;
  for (;;) {
    const Clock::time_point now = Clock::now();
    for (; next_open < n_open && open_due(next_open) <= now; ++next_open) {
      Send(conns_[next_open % reads],
           Query(Kind::kOpen, kOpenStream, next_open, open_due(next_open)));
    }
    for (; next_batch < n_batches && batch_due(next_batch) <= now; ++next_batch) {
      const std::vector<Update> batch = log_->NextBatch();
      for (const Update& u : batch) {
        SendUpdate(u, batch.size() > 1, batch_due(next_batch));
      }
    }
    if (!closed_started && now >= closed_start_) {
      closed_started = true;
      closed_open_ = true;
      for (uint32_t c = 0; c < reads; ++c) {
        for (uint32_t d = 0; d < spec.closed_depth; ++d) {
          Send(conns_[c], Query(Kind::kClosed, kClosedStream, closed_next_++, now));
        }
      }
    }
    FlushAll();
    if (now >= closed_end_) break;
    Clock::time_point wake = closed_end_;
    if (next_open < n_open) wake = std::min(wake, open_due(next_open));
    if (next_batch < n_batches) wake = std::min(wake, batch_due(next_batch));
    if (!closed_started) wake = std::min(wake, closed_start_);
    if (!Pump(wake)) return false;
  }
  closed_open_ = false;
  closed_window_s_ = std::chrono::duration<double>(closed_end_ - closed_start_).count();
  return AwaitAnswers("load");
}

bool LoadRun::AwaitAnswers(const char* phase) {
  // No request carries a deadline, so an answer still missing after a
  // minute is a fault.
  const Clock::time_point limit = Clock::now() + std::chrono::seconds(60);
  for (;;) {
    bool idle = true;
    for (const Conn& c : conns_) idle = idle && c.pending.empty();
    if (idle) return true;
    if (Clock::now() > limit ||
        !Pump(Clock::now() + std::chrono::milliseconds(50))) {
      checker_.Fail(std::string("answers missing after the ") + phase);
      for (const Conn& c : conns_) failed_ += c.pending.size();
      return false;
    }
  }
}

bool LoadRun::CommitProbe() {
  if (w_.spec().batch_ops) return true;
  // Static workloads publish nothing, so their commit figures come from
  // empty commits sent one at a time after the load: the fixed cost of the
  // update path (reader, writer queue, ack) on a quiet daemon. Sent beside
  // long SCS kernels instead, their round trip measured CPU scheduling.
  for (int i = 0; i < kProbeCommits; ++i) {
    for (const Update& u : log_->NextBatch()) SendUpdate(u, false, Clock::now());
    FlushAll();
    if (!AwaitAnswers("commit probe")) return false;
  }
  return true;
}

bool LoadRun::Verify() {
  if (!w_.spec().batch_ops) return true;
  // After the final commit the daemon must answer exactly like the oracle
  // run on our own copy of the graph with the same op log applied.
  verify_oracle_ = std::make_unique<Oracle>(w_.num_upper(), w_.num_lower(),
                                           log_->Edges());
  for (uint64_t i = 0; i < 200; ++i) {
    Pending p = Query(Kind::kVerify, kVerifyStream, i, Clock::now());
    p.sample = true;
    Send(conns_[0], p);
  }
  FlushAll();
  return AwaitAnswers("verification");
}

bool LoadRun::Teardown() {
  peak_rss_mb_ = PeakRssKb(serve_.pid()) / 1024.0;
  for (Conn& c : conns_) {
    if (c.fd >= 0) close(c.fd);
    c.fd = -1;
  }
  kill(serve_.pid(), SIGTERM);
  const int rc = serve_.Wait(60);
  std::ifstream in(serve_log_);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string log = ss.str();
  if (rc != 0) {
    checker_.Fail("abcs serve exited with " + std::to_string(rc));
    return false;
  }
  std::map<std::string, uint64_t> drained = ParseTotals(log, "# drained:");
  std::map<std::string, uint64_t> updates = ParseTotals(log, "# updates:");
  auto expect = [&](const char* what, uint64_t got, uint64_t want) {
    if (got != want) {
      checker_.Fail(std::string("daemon total ") + what + "=" +
                    std::to_string(got) + ", generator counted " +
                    std::to_string(want));
    }
  };
  if (drained.empty() || updates.empty()) {
    checker_.Fail("daemon printed no drain totals");
    return false;
  }
  expect("requests", drained["requests"], frames_sent_);
  expect("ok", drained["ok"], ok_received_);
  expect("applied", updates["applied"], update_acks_);
  expect("epochs", updates["epochs"], epochs_acked_);
  expect("final_epoch", updates["final_epoch"], last_commit_epoch_);
  if (max_query_epoch_ > last_commit_epoch_) {
    checker_.Fail("a query reported an epoch above the last acked commit");
  }
  return true;
}

void LoadRun::Print() {
  const uint64_t attempted = frames_sent_;
  MetricWriter m;
  m.Add("setup_s", setup_s_, "s");
  m.Add("p50_ms", Percentile(open_lat_ms_, 50), "ms");
  m.Add("p99_ms", Percentile(open_lat_ms_, 99), "ms");
  m.Add("throughput_qps",
        closed_window_s_ > 0 ? static_cast<double>(closed_done_) / closed_window_s_ : 0,
        "1/s");
  m.Add("peak_rss_mb", peak_rss_mb_, "MB");
  m.Add("bundle_mb", bundle_mb_, "MB");
  m.Add("commit_p50_ms", Percentile(commit_ms_, 50), "ms");
  m.Add("commit_p90_ms", Percentile(commit_ms_, 90), "ms");
  m.Add("serve.start_to_ready_ms", start_to_ready_ms_, "ms");
  m.Add("serve.memo.hit_ratio",
        query_responses_ ? static_cast<double>(memo_hits_) / query_responses_ : 0,
        "ratio");
  m.Add("serve.memo.hit_base", static_cast<double>(query_responses_), "count");
  m.Add("loadgen.lag_p99_ms", Percentile(lag_ms_, 99), "ms");
  std::fprintf(stderr,
               "# e2e %s seed=%llu: delta=%u pairs=%zu open=%zu samples "
               "closed=%llu in %.1fs commits=%zu oracle-checked=%llu "
               "property-checked=%llu distinct-keys=%llu\n",
               w_.spec().name.c_str(), static_cast<unsigned long long>(w_.seed()),
               w_.delta(), w_.pairs().size(), open_lat_ms_.size(),
               static_cast<unsigned long long>(closed_done_), closed_window_s_,
               commit_ms_.size(),
               static_cast<unsigned long long>(checker_.oracle_checked()),
               static_cast<unsigned long long>(checker_.property_checked()),
               static_cast<unsigned long long>(w_.DistinctKeys()));
  if (!checker_.ok()) {
    std::fprintf(stderr, "# INCORRECT (%llu errors): %s\n",
                 static_cast<unsigned long long>(checker_.errors()),
                 checker_.first_error().c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              checker_.ok() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed_), m.Json().c_str());
  std::fflush(stdout);
}

int LoadRun::Run() {
  const bool ok = Setup() && DriveLoad() && CommitProbe() && Verify();
  checker_.CompareSamples();
  const bool down = serve_.pid() > 0 && Teardown();
  if (!ok || !down) {
    std::fprintf(stderr, "# end-to-end run aborted: %s\n",
                 checker_.ok() ? "setup or transport failure"
                               : checker_.first_error().c_str());
    return 1;
  }
  Print();
  return 0;
}

}  // namespace

int RunEndToEnd(const E2EOptions& opt) {
  const WorkloadSpec* spec = FindWorkload(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  Workload w(*spec, opt.seed);
  LoadRun run(w, opt);
  return run.Run();
}

}  // namespace perfbench
