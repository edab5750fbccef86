// Fixture: a sweep that fans cells out to worker threads and guards a shared
// counter.  Every spelling below is a thread, a lock or an atomic.
// lint-expect: threads
#include <atomic>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

std::mutex g_log_mutex;
std::atomic<int> g_cells_done{0};

void run_cells(int cells) {
  std::vector<std::thread> workers;
  for (int i = 0; i < cells; ++i) {
    workers.emplace_back([] { g_cells_done.fetch_add(1); });
  }
  for (std::thread& worker : workers) worker.join();
  std::jthread reporter([] {});
  auto done = std::async([] { return g_cells_done.load(); });
  (void)done.get();
}
