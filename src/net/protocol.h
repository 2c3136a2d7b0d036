/**
 * @file
 * The gb::net wire protocol: newline-delimited text, one request
 * line in, one reply line out (docs/serve.md "Network protocol").
 *
 * Requests:
 *   SUBMIT <job-line>     job-line as in a job file (serve/job.h)
 *   STATUS <id>
 *   WAIT <id> [timeout]   timeout in seconds (0..kMaxWaitSeconds);
 *                         absent = block
 *   CANCEL <id>
 *   STATS
 *   DRAIN
 *
 * Replies:
 *   OK <payload>          e.g. "OK 3 queued", "OK 3 done run_s=0.1 ..."
 *   TIMEOUT <id> <status> WAIT deadline passed, job not terminal
 *   ERR <message>         parse errors, unknown ids, admission
 *                         rejections ("ERR queue full (depth 64)")
 *
 * Parsing is strict (unknown verb, missing/garbage id, trailing
 * tokens all throw InputError) so a malformed request is answered
 * with a precise ERR instead of being half-applied.
 */
#ifndef GB_NET_PROTOCOL_H
#define GB_NET_PROTOCOL_H

#include <string>

#include "serve/scheduler.h"
#include "util/common.h"

namespace gb::net {

enum class Verb : u8
{
    kSubmit,
    kStatus,
    kWait,
    kCancel,
    kStats,
    kDrain,
};

/** Wire name of a verb ("SUBMIT", "STATUS", ...). */
const char* verbName(Verb verb);

/** One parsed request line. */
struct Request
{
    Verb verb = Verb::kStats;
    u64 id = 0;              ///< STATUS/WAIT/CANCEL target
    double timeout = -1.0;   ///< WAIT deadline in seconds; < 0 = none
    std::string job_line;    ///< SUBMIT payload, verbatim
};

/** Parse one request line; throws InputError with the ERR text. */
Request parseRequest(const std::string& line);

/** "ERR <message>" (newlines squashed so the frame stays one line). */
std::string errReply(const std::string& message);

/**
 * Status payload for one job: "<id> <status>" plus, when terminal,
 * either the error message (failed/rejected/cancelled) or the
 * metrics summary (done). Used by STATUS and WAIT replies.
 */
std::string statusPayload(u64 id, serve::JobStatus status,
                          const serve::JobMetrics& metrics,
                          const std::string& error);

/** One-line key=value form of the server counters (STATS reply). */
std::string statsPayload(const serve::Scheduler::Stats& stats);

} // namespace gb::net

#endif // GB_NET_PROTOCOL_H
