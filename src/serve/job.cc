#include "serve/job.h"

#include <fstream>
#include <sstream>

#include "util/parse.h"
#include "util/thread_pool.h"

namespace gb::serve {

Priority
parsePriority(const std::string& name)
{
    if (name == "high") return Priority::kHigh;
    if (name == "normal") return Priority::kNormal;
    if (name == "batch") return Priority::kBatch;
    throw InputError("job: unknown priority: " + name +
                     " (expected high, normal or batch)");
}

const char*
priorityName(Priority priority)
{
    switch (priority) {
      case Priority::kHigh: return "high";
      case Priority::kNormal: return "normal";
      case Priority::kBatch: return "batch";
    }
    return "?";
}

std::string
JobSpec::describe() const
{
    std::ostringstream out;
    out << kernel << " size=" << datasetSizeName(size)
        << " priority=" << priorityName(priority)
        << " t=" << threads << " x" << repeats;
    return out.str();
}

void
validateSpec(const JobSpec& spec,
             const std::vector<std::string>& known_kernels)
{
    requireInput(!spec.kernel.empty(), "job: missing kernel name");
    requireKnownName("job: unknown kernel", spec.kernel, known_kernels);
    requireInput(spec.threads > 0,
                 "job: threads must be >= 1 (" + spec.kernel + ")");
    requireInput(spec.repeats > 0,
                 "job: repeats must be >= 1 (" + spec.kernel + ")");
}

JobSpec
parseJobLine(const std::string& line)
{
    std::istringstream tokens(line);
    std::string token;
    JobSpec spec;
    bool have_kernel = false;
    bool have_size = false, have_threads = false;
    bool have_repeats = false;
    bool have_priority = false;
    while (tokens >> token) {
        const size_t eq = token.find('=');
        if (eq == std::string::npos) {
            requireInput(!have_kernel,
                         "job: two kernel names on one line: '" +
                             spec.kernel + "' and '" + token + "'");
            spec.kernel = token;
            have_kernel = true;
            continue;
        }
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        requireInput(!value.empty(),
                     "job: empty value for key: " + key);
        if (key == "size") {
            requireInput(!have_size, "job: duplicate key: size");
            spec.size = parseDatasetSize(value);
            have_size = true;
        } else if (key == "threads") {
            requireInput(!have_threads, "job: duplicate key: threads");
            spec.threads =
                parseUnsigned("job: threads", value, 1, kMaxThreads);
            have_threads = true;
        } else if (key == "repeats") {
            requireInput(!have_repeats, "job: duplicate key: repeats");
            spec.repeats =
                parseUnsigned("job: repeats", value, 1, 1'000'000);
            have_repeats = true;
        } else if (key == "priority") {
            requireInput(!have_priority,
                         "job: duplicate key: priority");
            spec.priority = parsePriority(value);
            have_priority = true;
        } else {
            throw InputError(
                "job: unknown key: " + key +
                " (expected size, threads, repeats or priority)");
        }
    }
    requireInput(have_kernel, "job: missing kernel name");
    return spec;
}

std::vector<JobSpec>
parseJobFile(const std::string& path)
{
    std::ifstream in(path);
    requireInput(in.is_open(), "jobs: cannot open '" + path + "'");
    std::vector<JobSpec> specs;
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const size_t hash = line.find('#');
        if (hash != std::string::npos) line.erase(hash);
        if (line.find_first_not_of(" \t\r") == std::string::npos) {
            continue;
        }
        try {
            specs.push_back(parseJobLine(line));
        } catch (const InputError& e) {
            throw InputError(path + ":" + std::to_string(lineno) +
                             ": " + e.what());
        }
    }
    requireInput(!specs.empty(),
                 "jobs: no jobs in '" + path + "'");
    return specs;
}

} // namespace gb::serve
