// Fixture: a sweep that runs its cells in a plain loop.  Names that merely
// contain "thread" or "atomic", and a comment or string naming std::thread,
// are not threads.
#include <string>
#include <vector>

struct SweepStats {
  int threads_requested = 1;  // a field, not a thread
  bool atomic_commit = true;
};

int run_cells(const std::vector<int>& cells) {
  int done = 0;
  for (int cell : cells) done += cell;  // std::thread is not used here
  return done;
}

const char* kNote = "std::mutex and std::atomic are not used here";
