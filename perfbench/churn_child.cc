/**
 * @file
 * The program the capture workloads run bare and under
 * `heapmd capture`.  It has no heapmd dependencies: it stands in for
 * an arbitrary real process.
 *
 *   churn_child THREADS LISTS LEN ROUNDS WORK SEED [DRIFT HOLD]
 *
 * Each of THREADS threads keeps LISTS singly-linked lists of LEN
 * nodes.  Every node points to a pointer-free data block, so the live
 * heap holds THREADS * LISTS * LEN * 2 objects.  One round rebuilds a
 * random list of the thread's pool with the same shape: LEN node
 * frees, LEN data frees, LEN mallocs, LEN callocs and one realloc of a
 * data block.  The degree ratios of the heap graph therefore stay
 * constant, which is what makes every metric train stable.  WORK
 * mixing steps per allocated block stand in for the computation a
 * real program does between allocator calls.
 *
 * With DRIFT > 0, thread 0 allocates DRIFT pointer-free singletons
 * after the ROUNDS rounds, prints "drifted", and every thread churns
 * HOLD more rounds before the singletons are freed: %roots and
 * %leaves jump far above the trained ranges while the process still
 * runs.
 *
 * The last line is "ops N checksum C".  Both depend only on the
 * arguments, never on thread timing, so a captured run must print the
 * same line as the bare run.
 */

#include <barrier>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

namespace
{

struct Node
{
    Node *next;
    std::uint64_t *data;
    std::uint64_t payload;
};

struct Params
{
    int threads = 1;
    int lists = 1;
    int len = 1;
    long rounds = 0;
    int work = 0;
    std::uint64_t seed = 1;
    int drift = 0;
    long hold = 0;
};

std::uint64_t
nextRandom(std::uint64_t &state)
{
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
}

void *
checked(void *block)
{
    if (block == nullptr)
        std::abort();
    return block;
}

/** Per-thread allocator traffic and checksum. */
class Worker
{
  public:
    Worker(const Params &params, int index)
        : params_(params),
          state_(params.seed * 0x9e3779b97f4a7c15ull + index + 1),
          pool_(static_cast<std::size_t>(params.lists), nullptr)
    {
    }

    void
    build()
    {
        for (Node *&list : pool_)
            list = buildList();
    }

    void
    churn(long rounds)
    {
        for (long r = 0; r < rounds; ++r) {
            const std::size_t slot = nextRandom(state_) % pool_.size();
            freeList(pool_[slot]);
            pool_[slot] = buildList();
            // One realloc per round: grow or shrink a data block.
            Node *node = pool_[slot];
            const std::size_t words = 2 + nextRandom(state_) % 14;
            node->data = static_cast<std::uint64_t *>(checked(
                std::realloc(node->data, words * sizeof(std::uint64_t))));
            // Grown bytes hold stale allocator words; clear them so the
            // conservative scan sees the same pointer-free block.
            std::memset(node->data, 0, words * sizeof(std::uint64_t));
            node->data[words - 1] = mix(node->payload);
            sum_ += node->data[words - 1];
            ++ops_;
        }
    }

    void
    teardown()
    {
        for (Node *list : pool_)
            freeList(list);
    }

    std::uint64_t ops() const { return ops_; }
    std::uint64_t sum() const { return sum_; }

  private:
    std::uint64_t
    mix(std::uint64_t value) const
    {
        for (int i = 0; i < params_.work; ++i)
            value = (value ^ (value >> 29)) * 0xbf58476d1ce4e5b9ull + i;
        return value;
    }

    Node *
    buildList()
    {
        Node *head = nullptr;
        for (int i = 0; i < params_.len; ++i) {
            Node *node = static_cast<Node *>(checked(std::malloc(sizeof(Node))));
            node->data = static_cast<std::uint64_t *>(
                checked(std::calloc(2, sizeof(std::uint64_t))));
            node->payload = mix(nextRandom(state_));
            node->data[0] = node->payload;
            node->next = head;
            head = node;
            ops_ += 2;
        }
        for (const Node *it = head; it != nullptr; it = it->next)
            sum_ += it->data[0];
        return head;
    }

    void
    freeList(Node *head)
    {
        while (head != nullptr) {
            Node *next = head->next;
            std::free(head->data);
            std::free(head);
            head = next;
            ops_ += 2;
        }
    }

    const Params &params_;
    std::uint64_t state_;
    std::vector<Node *> pool_;
    std::uint64_t ops_ = 0;
    std::uint64_t sum_ = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 7 && argc != 9) {
        std::fprintf(stderr, "usage: %s THREADS LISTS LEN ROUNDS WORK "
                             "SEED [DRIFT HOLD]\n",
                     argv[0]);
        return 64;
    }
    Params params;
    params.threads = std::atoi(argv[1]);
    params.lists = std::atoi(argv[2]);
    params.len = std::atoi(argv[3]);
    params.rounds = std::atol(argv[4]);
    params.work = std::atoi(argv[5]);
    params.seed = std::strtoull(argv[6], nullptr, 10);
    if (argc == 9) {
        params.drift = std::atoi(argv[7]);
        params.hold = std::atol(argv[8]);
    }
    if (params.threads < 1 || params.lists < 1 || params.len < 1 ||
        params.rounds < 0 || params.work < 0 || params.drift < 0 ||
        params.hold < 0) {
        std::fprintf(stderr, "bad arguments\n");
        return 64;
    }

    std::vector<Worker> workers;
    workers.reserve(static_cast<std::size_t>(params.threads));
    for (int t = 0; t < params.threads; ++t)
        workers.emplace_back(params, t);

    std::vector<void *> singles;
    std::uint64_t drift_sum = 0;
    std::barrier sync(params.threads, []() noexcept {});
    auto body = [&](int t) {
        Worker &worker = workers[static_cast<std::size_t>(t)];
        worker.build();
        worker.churn(params.rounds);
        if (params.drift == 0) {
            worker.teardown();
            return;
        }
        sync.arrive_and_wait();
        if (t == 0) {
            singles.reserve(static_cast<std::size_t>(params.drift));
            for (int i = 0; i < params.drift; ++i) {
                void *block = checked(std::malloc(24));
                std::memset(block, i & 0xff, 24);
                drift_sum += static_cast<unsigned char *>(block)[7];
                singles.push_back(block);
            }
            std::printf("drifted\n");
            std::fflush(stdout);
        }
        sync.arrive_and_wait();
        worker.churn(params.hold);
        worker.teardown();
    };

    std::vector<std::thread> threads;
    for (int t = 1; t < params.threads; ++t)
        threads.emplace_back(body, t);
    body(0);
    for (std::thread &thread : threads)
        thread.join();
    for (void *block : singles)
        std::free(block);

    std::uint64_t ops = 2 * singles.size();
    std::uint64_t sum = drift_sum;
    for (const Worker &worker : workers) {
        ops += worker.ops();
        sum = sum * 31 + worker.sum();
    }
    std::printf("ops %llu checksum %llu\n",
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(sum));
    return 0;
}
