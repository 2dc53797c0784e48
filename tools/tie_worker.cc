/**
 * @file
 * tie_worker — one serving replica as a real OS process.
 *
 *   tie_worker --model m.tie --listen unix:/tmp/w0.sock \
 *              [--workers N] [--max-batch B] [--queue-cap Q] \
 *              [--batch-timeout-us T]
 *
 * Loads a .tie artifact (mmap, fully validated before serving; a
 * file the loader refuses exits 1 before "ready"), starts a
 * ClusterWorker on the given endpoint, prints a single
 * flushed "ready <endpoint>" line on stdout (the spawn handshake the
 * router harness reads), then runs until either stdin reaches EOF
 * (parent died or closed the pipe — tie down with the harness) or a
 * Drain frame has been fully honored. Exits 0 after a clean stop.
 *
 * The chaos harness SIGKILLs these processes on purpose; everything
 * that must survive that lives on the router side.
 */

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cluster/worker.hh"
#include "common/logging.hh"
#include "io/tie_format.hh"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --model PATH.tie --listen tcp:PORT|unix:PATH\n"
        "          [--workers N] [--max-batch B] [--queue-cap Q]\n"
        "          [--batch-timeout-us T]\n",
        argv0);
}

bool
parseSize(const char *s, size_t *out)
{
    char *end = nullptr;
    const long long v = std::strtoll(s, &end, 10);
    if (end == s || *end != '\0' || v < 0)
        return false;
    *out = static_cast<size_t>(v);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tie;

    std::string model_path;
    cluster::ClusterWorkerOptions opts;
    bool have_listen = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        size_t v = 0;
        if (arg == "--model") {
            model_path = next();
        } else if (arg == "--listen") {
            std::string err;
            if (!cluster::parseEndpoint(next(), &opts.listen,
                                        &err)) {
                std::fprintf(stderr, "bad --listen: %s\n",
                             err.c_str());
                return 2;
            }
            have_listen = true;
        } else if (arg == "--workers" && parseSize(next(), &v)) {
            opts.server.workers = v;
        } else if (arg == "--max-batch" && parseSize(next(), &v)) {
            opts.server.max_batch = v;
        } else if (arg == "--queue-cap" && parseSize(next(), &v)) {
            opts.server.queue_capacity = v;
        } else if (arg == "--batch-timeout-us" &&
                   parseSize(next(), &v)) {
            opts.server.batch_timeout_us = v;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown or malformed arg: %s\n",
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (model_path.empty() || !have_listen) {
        usage(argv[0]);
        return 2;
    }

    io::TieModel model;
    std::string err;
    if (!io::TieModel::tryLoad(model_path, &model, &err)) {
        std::fprintf(stderr, "tie_worker: cannot load %s: %s\n",
                     model_path.c_str(), err.c_str());
        return 1;
    }

    cluster::ClusterWorker worker(std::move(model), opts);
    if (!worker.start(&err)) {
        std::fprintf(stderr, "tie_worker: cannot listen: %s\n",
                     err.c_str());
        return 1;
    }

    // The handshake line the spawner blocks on. Must be flushed:
    // stdout is a pipe here, fully buffered by default.
    std::printf("ready %s\n", worker.endpoint().toString().c_str());
    std::fflush(stdout);

    // Serve until drained or orphaned. stdin EOF doubles as the
    // lifetime tie to the parent: when the harness (or a test) dies,
    // its end of the pipe closes and the worker shuts down instead
    // of leaking.
    const int flags = ::fcntl(STDIN_FILENO, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(STDIN_FILENO, F_SETFL, flags | O_NONBLOCK);
    for (;;) {
        if (worker.waitDrained(0))
            break;
        struct pollfd pfd = {STDIN_FILENO, POLLIN, 0};
        if (::poll(&pfd, 1, 200) <= 0)
            continue;
        char buf[256];
        const ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
        if (n == 0)
            break; // EOF: the parent is gone
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
            errno != EINTR)
            break;
    }

    worker.stop();
    return 0;
}
