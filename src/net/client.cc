#include "net/client.h"

#include <ostream>
#include <sstream>
#include <vector>

#include "net/net.h"
#include "serve/job.h"

namespace gb::net {

namespace {

/** One request -> one reply; throws NetError if the server hung up. */
std::string
roundTrip(Connection& conn, const std::string& request)
{
    conn.writeLine(request);
    std::string reply;
    if (!conn.readLine(&reply)) {
        throw NetError("server closed the connection (after '" +
                       request + "')");
    }
    return reply;
}

bool
isOkDone(const std::string& reply)
{
    // "OK <id> done ..." — anything else (failed, cancelled,
    // rejected, TIMEOUT, ERR) counts against the exit code.
    std::istringstream tokens(reply);
    std::string ok, id, status;
    tokens >> ok >> id >> status;
    return ok == "OK" && status == "done";
}

} // namespace

int
runClient(const ClientOptions& options, std::ostream& out)
{
    // The client stays schema-agnostic: it sends each job line and
    // the server parses it, so the job-file syntax lives server-side.
    const auto lines = serve::readJobLines(options.jobs_path);
    Connection conn = Connection::connectTo(
        options.host, options.port, options.connect_seconds);

    int failures = 0;
    std::vector<std::string> ids;
    for (const auto& line : lines) {
        const std::string reply =
            roundTrip(conn, "SUBMIT " + line.text);
        out << reply << " <- " << line.text << '\n';
        std::istringstream tokens(reply);
        std::string ok, id;
        tokens >> ok >> id;
        if (ok == "OK") {
            ids.push_back(id);
        } else {
            ++failures; // ERR: refused (parse error or queue full)
        }
    }

    // Stream terminal statuses in submission order.
    for (const auto& id : ids) {
        std::string request = "WAIT " + id;
        if (options.wait_seconds >= 0.0) {
            request +=
                ' ' + std::to_string(options.wait_seconds);
        }
        const std::string reply = roundTrip(conn, request);
        out << reply << '\n';
        if (!isOkDone(reply)) ++failures;
    }

    out << roundTrip(conn, "STATS") << '\n';
    if (options.drain) {
        const std::string reply = roundTrip(conn, "DRAIN");
        out << reply << '\n';
        if (reply != "OK drained") ++failures;
    }
    return failures == 0 ? 0 : 1;
}

} // namespace gb::net
