#include "cluster/worker.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "cluster/frame.hpp"
#include "common/fsio.hpp"
#include "sort/input_cache.hpp"
#include "svc/remote.hpp"

namespace dsm::cluster {
namespace {

/// Run one task through svc::execute_attempt and build its done message.
/// Only the worker's own concerns live here: heartbeats, streaming marks
/// to the master, the crash hook and the --lie corruption. Retry,
/// serialize and deadline *classification* stay master-side.
WireMessage run_task(const WireMessage& task, Channel& ch,
                     const WorkerOptions& opts) {
  if (task.cache_budget != 0) {
    sort::input_cache_set_budget(task.cache_budget);
  }

  // Heartbeat machinery (ISSUE 9): while the sort runs, a side thread
  // emits kHeartbeat frames every task.heartbeat_ms so the master can
  // tell a slow worker from a stopped one. Marks and heartbeats share
  // one fd, so every send serializes through send_mu — a frame torn by
  // interleaved writers would read as wire corruption at the master.
  std::mutex send_mu;
  const auto locked_send = [&send_mu, &ch](const WireMessage& msg) {
    std::lock_guard<std::mutex> lock(send_mu);
    return send_message(ch, msg);
  };
  std::atomic<double> last_virtual_ns{0};
  std::mutex beat_mu;
  std::condition_variable beat_cv;
  bool stop_beats = false;
  std::thread beater;
  if (task.heartbeat_ms > 0) {
    beater = std::thread([&] {
      std::uint64_t beats = 0;
      std::unique_lock<std::mutex> lock(beat_mu);
      for (;;) {
        if (beat_cv.wait_for(lock,
                             std::chrono::milliseconds(task.heartbeat_ms),
                             [&] { return stop_beats; })) {
          return;
        }
        WireMessage hb;
        hb.type = MsgType::kHeartbeat;
        hb.task_id = task.task_id;
        hb.beats = ++beats;
        hb.virtual_ns = last_virtual_ns.load(std::memory_order_relaxed);
        if (!locked_send(hb).ok()) return;  // master gone; the sort's next
                                            // mark-send will notice too
      }
    });
  }
  const auto stop_beater = [&] {
    if (!beater.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(beat_mu);
      stop_beats = true;
    }
    beat_cv.notify_all();
    beater.join();
  };

  const auto on_mark = [&task, &opts, &locked_send, &last_virtual_ns](
                           const char* site, double virtual_ns) {
    last_virtual_ns.store(virtual_ns, std::memory_order_relaxed);
    WireMessage mark;
    mark.type = MsgType::kMark;
    mark.task_id = task.task_id;
    mark.site = site;
    mark.virtual_ns = virtual_ns;
    const Status sent = locked_send(mark);
    if (!sent.ok()) {
      // The master is gone; abort the sort cleanly (the team poison
      // machinery unwinds every rank) and let the main loop exit.
      throw StatusError(sent);
    }
    if (opts.crash_hook) {
      opts.crash_hook((std::string("exec.") + site).c_str(),
                      task.job.svc_seq);
    }
  };
  svc::RemoteAttempt attempt;
  attempt.job = task.job;
  attempt.plan = task.plan;
  attempt.attempt = task.attempt;
  attempt.audit = task.audit;
  const svc::RemoteOutcome o =
      svc::execute_attempt(attempt, svc::FaultInjector(task.faults), on_mark);
  stop_beater();

  WireMessage done;
  done.type = MsgType::kDone;
  done.task_id = task.task_id;
  done.ok = o.ok;
  done.failure = o.failure;
  done.fired_site = o.fired_site;
  done.measured_ns = o.measured_ns;
  done.passes = o.passes;
  done.verified = o.verified;
  done.input_cs = o.input_checksum;
  done.run_hash = o.run_hash;
  if (o.ok && opts.lie) {
    // Corrupt the consumed-input report: the sorted-run shape stays
    // plausible, but the multiset fingerprint can no longer match the
    // admission-time expectation.
    done.input_cs.sum ^= 0xdeadbeefcafef00dull;
    done.run_hash ^= 0xbadc0ffee0ddf00dull;
  }
  return done;
}

}  // namespace

int worker_main(Channel ch, const WorkerOptions& opts) {
  ignore_sigpipe();

  WireMessage hello;
  hello.type = MsgType::kHello;
  hello.version = kProtocolVersion;
  hello.pid = static_cast<std::uint64_t>(::getpid());
  hello.label = opts.label;
  if (!send_message(ch, hello).ok()) return 1;

  for (;;) {
    Result<WireMessage> m = recv_message(ch);
    if (!m.ok()) {
      // The master died or closed us out (an elastic retire closes the
      // channel without a shutdown message when the master is hurried).
      return m.status().code() == StatusCode::kPeerDead ? 0 : 1;
    }
    switch (m->type) {
      case MsgType::kShutdown:
        return 0;
      case MsgType::kTask: {
        const WireMessage done = run_task(*m, ch, opts);
        if (!send_message(ch, done).ok()) return 0;  // master gone
        break;
      }
      default:
        return 1;  // protocol violation: masters never send anything else
    }
  }
}

}  // namespace dsm::cluster
