/**
 * @file
 * Test access to a serve::Server's session chains, shared by the
 * serving and cluster suites.
 */

#ifndef TIE_TESTS_SERVER_TEST_PEER_HH
#define TIE_TESTS_SERVER_TEST_PEER_HH

#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "serve/server.hh"

namespace tie {
namespace serve {

/**
 * Lends every worker's session chain to the test, the way a
 * caller-runs submit borrows one, until the returned guard dies.
 * While they are lent the server is busy: a submit cannot run on the
 * caller and queues, and no worker dequeues.
 */
struct ServerTestPeer
{
    class Held
    {
      public:
        Held(Server &s, std::vector<size_t> runners)
            : q_(s.queue_), runners_(std::move(runners))
        {}
        Held(const Held &) = delete;
        Held &operator=(const Held &) = delete;

        ~Held()
        {
            bool wake = false;
            {
                std::lock_guard<std::mutex> lk(q_.mu_);
                for (size_t r : runners_)
                    wake = q_.idleLocked(r) || wake;
            }
            if (wake)
                q_.work_cv_.notify_all();
        }

      private:
        RequestQueue &q_;
        std::vector<size_t> runners_;
    };

    /** Blocks until every worker's current batch (if any) ends. */
    static Held
    holdChains(Server &s)
    {
        RequestQueue &q = s.queue_;
        std::vector<size_t> runners;
        while (runners.size() < s.workers_.size()) {
            {
                std::lock_guard<std::mutex> lk(q.mu_);
                for (size_t r = 0; r < s.workers_.size(); ++r)
                    if (q.lendLocked(r))
                        runners.push_back(r);
            }
            std::this_thread::yield();
        }
        return Held(s, std::move(runners));
    }
};

} // namespace serve
} // namespace tie

#endif // TIE_TESTS_SERVER_TEST_PEER_HH
