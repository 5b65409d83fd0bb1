/**
 * @file
 * Workload binary run under the capture shim by capture_test.
 *
 * No heapmd dependencies: this is a stand-in for an arbitrary real
 * process.  The mode argument selects a workload:
 *
 *   basic  mixed allocator traffic through every interposed entry
 *          point, fully freed, clean exit
 *   leak   build a linked list, traverse it, exit without freeing
 *          (the shim's final scan must recover the chain as edges)
 *   storm  several threads hammering malloc/free/realloc
 *   exit   allocate, then _exit(2) -- no atexit, truncated trace
 *   fail   allocate briefly, exit 3
 *   fork   fork a child that allocates and exit(0)s -- the child's
 *          inherited atexit finalizer must not touch the parent's
 *          trace fd; the parent then finishes a basic workload
 *   linger allocate a live structure, print "ready", then hold it
 *          for N ms (argv[2], default 3000) -- the window in which
 *          `heapmd top` / the Prometheus exporter read the process's
 *          live stats segment.  argv[3] is the allocation step in ms
 *          (default 50); 0 holds fully idle, so two scrapes of the
 *          segment in the window must be byte-identical
 *   steady churn a pool of fixed-shape linked lists for N ms
 *          (argv[2], default 2000): the heap-graph's degree ratios
 *          stay constant, so every metric trains stable -- the
 *          training workload (and clean window) for `monitor`
 *   drift  run the steady churn for argv[2] ms (default 1000), then
 *          allocate a mass of pointer-free singletons and keep
 *          churning for argv[3] more ms (default 2500): %roots and
 *          %leaves jump far above the steady ranges *while the
 *          process is still running* -- the seeded fault for the
 *          live-monitor gate
 *   realloc in each of four phases, point a node a at b, give a scan
 *          at --frq 4 room to see it, realloc a past glibc's mmap
 *          threshold (so it moves) and at once overwrite the copied
 *          pointer with NULL; a2 and b stay live.  Each phase has
 *          nine allocator calls, so the four reallocs land on every
 *          residue of the scan period and in three of them no scan
 *          runs between the move and the overwrite.  Exits 5 unless
 *          every realloc moved
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace
{

struct Node
{
    Node *next;
    std::uint64_t payload;
};

/**
 * Build an @p count long singly-linked list.  The traversal checksum
 * is printed so the link stores are observable behavior the compiler
 * must keep.
 */
Node *
buildList(int count)
{
    Node *head = nullptr;
    for (int i = 0; i < count; ++i) {
        Node *node = static_cast<Node *>(std::malloc(sizeof(Node)));
        if (node == nullptr)
            std::abort();
        node->next = head;
        node->payload = static_cast<std::uint64_t>(i);
        head = node;
    }
    std::uint64_t sum = 0;
    for (const Node *it = head; it != nullptr; it = it->next)
        sum += it->payload;
    std::printf("checksum %llu\n",
                static_cast<unsigned long long>(sum));
    return head;
}

void
freeList(Node *head)
{
    while (head != nullptr) {
        Node *next = head->next;
        std::free(head);
        head = next;
    }
}

int
runBasic()
{
    Node *list = buildList(200);

    void *m = std::malloc(100);
    void *c = std::calloc(16, 8);
    void *r = std::realloc(nullptr, 64);
    r = std::realloc(r, 256); // likely moves
    void *a = ::aligned_alloc(64, 128);
    void *p = nullptr;
    if (::posix_memalign(&p, 32, 96) != 0)
        return 1;
    // Touch everything so none of it can be elided.
    std::memset(m, 1, 100);
    std::memset(c, 2, 128);
    std::memset(r, 3, 256);
    std::memset(a, 4, 128);
    std::memset(p, 5, 96);
    std::free(m);
    std::free(c);
    std::free(r);
    std::free(a);
    std::free(p);

    freeList(list);
    return 0;
}

int
runLeak()
{
    Node *list = buildList(128);
    (void)list; // deliberately leaked: the final scan must see it
    return 0;
}

int
runStorm()
{
    constexpr int kThreads = 4;
    constexpr int kIterations = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            std::uint64_t state = 0x9e3779b9u * (t + 1);
            void *held[8] = {};
            for (int i = 0; i < kIterations; ++i) {
                state = state * 6364136223846793005ull + 1442695040888963407ull;
                const std::size_t size = 16 + (state >> 33) % 240;
                const int slot = static_cast<int>(state % 8);
                if (held[slot] != nullptr && (state & 0x100) != 0) {
                    held[slot] = std::realloc(held[slot], size);
                } else {
                    std::free(held[slot]);
                    held[slot] = std::malloc(size);
                }
                if (held[slot] != nullptr)
                    std::memset(held[slot], i & 0xff, size);
            }
            for (void *ptr : held)
                std::free(ptr);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    return 0;
}

int
runExit()
{
    Node *list = buildList(32);
    (void)list;
    ::_exit(2); // skips atexit: the shim must leave a readable prefix
}

int
runFail()
{
    void *block = std::malloc(48);
    std::memset(block, 6, 48);
    std::free(block);
    return 3;
}

int
runLinger(int hold_ms, int step_ms)
{
    Node *list = buildList(300);
    std::printf("ready\n");
    std::fflush(stdout);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(hold_ms);
    if (step_ms <= 0) {
        // Fully idle hold: the shim publishes nothing, so two reads
        // of the stats segment in this window are byte-identical.
        std::this_thread::sleep_until(deadline);
    } else {
        // Keep allocating slowly so per-op publishes keep the
        // segment's heartbeat and gauges moving during the window.
        // Growing the live list (instead of a malloc/free pair the
        // optimizer may elide) guarantees every iteration reaches
        // the allocator.
        std::uint64_t grown = 0;
        while (std::chrono::steady_clock::now() < deadline) {
            Node *node =
                static_cast<Node *>(std::malloc(sizeof(Node)));
            if (node == nullptr)
                std::abort();
            node->next = list;
            node->payload = ++grown;
            list = node;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(step_ms));
        }
    }
    freeList(list);
    return 0;
}

/** buildList without the per-call banner (hot-loop variant). */
Node *
buildListQuiet(int count, std::uint64_t *sum)
{
    Node *head = nullptr;
    for (int i = 0; i < count; ++i) {
        Node *node = static_cast<Node *>(std::malloc(sizeof(Node)));
        if (node == nullptr)
            std::abort();
        node->next = head;
        node->payload = static_cast<std::uint64_t>(i);
        head = node;
    }
    for (const Node *it = head; it != nullptr; it = it->next)
        *sum += it->payload;
    return head;
}

constexpr int kPoolLists = 32;
constexpr int kPoolLen = 4;

/**
 * One churn round: rebuild a random pool slot with the same shape.
 * The graph's degree ratios are invariant under this, which is what
 * makes the steady workload train every metric stable.
 */
std::uint64_t
churnPool(Node **pool, std::uint64_t state, std::uint64_t *sum)
{
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const int slot = static_cast<int>((state >> 33) % kPoolLists);
    freeList(pool[slot]);
    pool[slot] = buildListQuiet(kPoolLen, sum);
    return state;
}

int
runSteady(int run_ms)
{
    Node *pool[kPoolLists] = {};
    std::uint64_t sum = 0;
    for (Node *&list : pool)
        list = buildListQuiet(kPoolLen, &sum);

    std::uint64_t state = 0x2545f4914f6cdd1dull;
    std::uint64_t rounds = 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(run_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        state = churnPool(pool, state, &sum);
        // Pace the churn so the run spans its wall-clock window with
        // a steady allocation rate instead of one opening burst.
        if ((++rounds & 0x1f) == 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
    }
    for (Node *list : pool)
        freeList(list);
    std::printf("steady rounds %llu checksum %llu\n",
                static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(sum));
    return 0;
}

int
runDrift(int steady_ms, int hold_ms)
{
    Node *pool[kPoolLists] = {};
    std::uint64_t sum = 0;
    for (Node *&list : pool)
        list = buildListQuiet(kPoolLen, &sum);

    std::uint64_t state = 0x2545f4914f6cdd1dull;
    std::uint64_t rounds = 0;
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(steady_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        state = churnPool(pool, state, &sum);
        if ((++rounds & 0x1f) == 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
    }

    // The fault: a mass of pointer-free singletons.  Every one is
    // simultaneously a root and a leaf, so %roots and %leaves jump
    // from the pool's steady ~25% toward 100%.
    std::vector<void *> singles;
    singles.reserve(4000);
    for (int i = 0; i < 4000; ++i) {
        void *block = std::malloc(24);
        if (block == nullptr)
            std::abort();
        std::memset(block, i & 0xff, 24);
        singles.push_back(block);
    }
    std::printf("drifted\n");
    std::fflush(stdout);

    // Keep the process alive and churning so the shim's scans keep
    // publishing the skewed graph -- the monitor must fire while
    // this loop is still running.
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(hold_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        state = churnPool(pool, state, &sum);
        if ((++rounds & 0x1f) == 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
    }

    for (void *block : singles)
        std::free(block);
    for (Node *list : pool)
        freeList(list);
    std::printf("drift rounds %llu checksum %llu\n",
                static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(sum));
    return 0;
}

/** Escapes what runRealloc keeps, so no allocation is elided. */
void *volatile g_kept[32];

int
runRealloc()
{
    constexpr int kPhases = 4;
    constexpr std::size_t kMovedSize = 200000;
    int kept = 0;
    int moved = 0;
    for (int phase = 0; phase < kPhases; ++phase) {
        void **a = static_cast<void **>(std::malloc(64));
        void *b = std::calloc(1, 64);
        if (a == nullptr || b == nullptr)
            return 1;
        a[0] = b;
        for (int i = 0; i < 5; ++i)
            g_kept[kept++] = std::malloc(32);
        const auto old_addr = reinterpret_cast<std::uintptr_t>(a);
        void **a2 = static_cast<void **>(std::realloc(a, kMovedSize));
        if (a2 == nullptr)
            return 1;
        moved += reinterpret_cast<std::uintptr_t>(a2) != old_addr;
        a2[0] = nullptr;
        g_kept[kept++] = a2;
        g_kept[kept++] = b;
        g_kept[kept++] = std::malloc(32);
    }
    return moved == kPhases ? 0 : 5;
}

int
runFork()
{
    // Allocate before forking so the shim's sink (and its atexit
    // finalizer registration) already exist in the parent and are
    // inherited by the child -- the case under test.
    void *warmup = std::malloc(128);
    std::memset(warmup, 8, 128);
    std::free(warmup);

    const pid_t pid = ::fork();
    if (pid < 0)
        return 1;
    if (pid == 0) {
        // Allocate in the child, then exit() -- NOT _exit() -- so the
        // inherited atexit finalizer runs.  It must go dark instead
        // of writing scans/footer into the fd shared with the parent.
        void *block = std::malloc(64);
        std::memset(block, 7, 64);
        std::free(block);
        std::exit(0);
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        return 1;
    return runBasic();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string mode = argc > 1 ? argv[1] : "basic";
    if (mode == "basic")
        return runBasic();
    if (mode == "leak")
        return runLeak();
    if (mode == "storm")
        return runStorm();
    if (mode == "exit")
        return runExit();
    if (mode == "fail")
        return runFail();
    if (mode == "fork")
        return runFork();
    if (mode == "realloc")
        return runRealloc();
    if (mode == "linger")
        return runLinger(argc > 2 ? std::atoi(argv[2]) : 3000,
                         argc > 3 ? std::atoi(argv[3]) : 50);
    if (mode == "steady")
        return runSteady(argc > 2 ? std::atoi(argv[2]) : 2000);
    if (mode == "drift")
        return runDrift(argc > 2 ? std::atoi(argv[2]) : 1000,
                        argc > 3 ? std::atoi(argv[3]) : 2500);
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 64;
}
