#include "net/protocol.h"

#include <algorithm>
#include <sstream>

#include "util/parse.h"
#include "util/table.h"

namespace gb::net {

namespace {

u64
parseId(const std::string& token)
{
    // stoull alone is too lenient: it accepts "-3" (wrapping to a
    // huge unsigned) and "3x" (partial parse). Digits only.
    requireInput(!token.empty() &&
                     token.find_first_not_of("0123456789") ==
                         std::string::npos,
                 "bad job id: '" + token + "'");
    try {
        const unsigned long long id = std::stoull(token);
        requireInput(id > 0, "bad job id: '" + token + "'");
        return id;
    } catch (const InputError&) {
        throw;
    } catch (const std::exception&) {
        throw InputError("bad job id: '" + token + "'");
    }
}

} // namespace

const char*
verbName(Verb verb)
{
    switch (verb) {
      case Verb::kSubmit: return "SUBMIT";
      case Verb::kStatus: return "STATUS";
      case Verb::kWait: return "WAIT";
      case Verb::kCancel: return "CANCEL";
      case Verb::kStats: return "STATS";
      case Verb::kDrain: return "DRAIN";
    }
    return "?";
}

Request
parseRequest(const std::string& line)
{
    std::istringstream tokens(line);
    std::string verb;
    tokens >> verb;
    requireInput(!verb.empty(), "empty request");

    Request request;
    std::string token;
    if (verb == "SUBMIT") {
        request.verb = Verb::kSubmit;
        std::getline(tokens, request.job_line);
        const size_t start =
            request.job_line.find_first_not_of(" \t");
        request.job_line = start == std::string::npos
                               ? std::string()
                               : request.job_line.substr(start);
        requireInput(!request.job_line.empty(),
                     "SUBMIT needs a job line");
        return request;
    }
    if (verb == "STATUS" || verb == "CANCEL" || verb == "WAIT") {
        request.verb = verb == "STATUS"  ? Verb::kStatus
                       : verb == "WAIT" ? Verb::kWait
                                        : Verb::kCancel;
        requireInput(static_cast<bool>(tokens >> token),
                     verb + " needs a job id");
        request.id = parseId(token);
        if (request.verb == Verb::kWait && tokens >> token) {
            request.timeout =
                parseSeconds("WAIT timeout", token, kMaxWaitSeconds);
        }
    } else if (verb == "STATS") {
        request.verb = Verb::kStats;
    } else if (verb == "DRAIN") {
        request.verb = Verb::kDrain;
    } else {
        throw InputError("unknown command: " + verb);
    }
    requireInput(!(tokens >> token),
                 verb + ": unexpected trailing token: '" + token +
                     "'");
    return request;
}

std::string
errReply(const std::string& message)
{
    std::string flat = message;
    std::replace(flat.begin(), flat.end(), '\n', ' ');
    std::replace(flat.begin(), flat.end(), '\r', ' ');
    return "ERR " + flat;
}

std::string
statusPayload(u64 id, serve::JobStatus status,
              const serve::JobMetrics& metrics,
              const std::string& error)
{
    std::ostringstream out;
    out << id << ' ' << serve::jobStatusName(status);
    if (status == serve::JobStatus::kDone) {
        out << " queue_s=" << formatF(metrics.queue_seconds, 3)
            << " prep_s=" << formatF(metrics.prepare_seconds, 3)
            << " run_s=" << formatF(metrics.run_seconds, 3)
            << " best_s=" << formatF(metrics.best_run_seconds, 3)
            << " tasks=" << metrics.tasks
            << " repeats=" << metrics.repeats_completed
            << " threads=" << metrics.pool_threads;
    } else if (!error.empty()) {
        std::string flat = error;
        std::replace(flat.begin(), flat.end(), '\n', ' ');
        out << ' ' << flat;
    }
    return out.str();
}

std::string
statsPayload(const serve::Scheduler::Stats& stats)
{
    std::ostringstream out;
    out << "workers=" << stats.workers
        << " queue_depth=" << stats.queue_depth
        << " submitted=" << stats.submitted
        << " rejected=" << stats.rejected
        << " completed=" << stats.completed
        << " failed=" << stats.failed
        << " cancelled=" << stats.cancelled
        << " queued=" << stats.queued
        << " running=" << stats.running
        << " peak_workers_busy=" << stats.peak_workers_busy;
    // Latency snapshot: appended after the original fields (and only
    // ever extended at the end), so pre-existing parsers that scan
    // the leading keys keep working.
    const auto& lat = stats.latency;
    auto emit = [&](const char* prefix,
                    const serve::Scheduler::LatencyQuantiles& q) {
        out << ' ' << prefix << "_p50_ms=" << formatF(q.p50_ms, 3)
            << ' ' << prefix << "_p95_ms=" << formatF(q.p95_ms, 3)
            << ' ' << prefix << "_p99_ms=" << formatF(q.p99_ms, 3);
    };
    out << " lat_jobs=" << lat.jobs;
    emit("queue_wait", lat.queue_wait);
    emit("prepare", lat.prepare);
    emit("run", lat.run);
    emit("e2e", lat.end_to_end);
    return out.str();
}

} // namespace gb::net
