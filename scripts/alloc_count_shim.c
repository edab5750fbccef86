/* Heap-allocation counter, loaded with LD_PRELOAD by scripts/count_allocs.sh.
 *
 * Every malloc-family call of the process (operator new goes through
 * malloc) bumps one counter and is forwarded to glibc's own allocator; free
 * is left alone.  At exit the process writes one line to stderr:
 *
 *     count_allocs: pid <pid> allocations <n>
 *
 * so a measurement is taken from outside the program under test, with no
 * help from its code.  glibc only: it forwards to the __libc_* entry points
 * instead of dlsym(RTLD_NEXT), which may itself allocate.
 */
#include <errno.h>
#include <stdatomic.h>
#include <stddef.h>
#include <unistd.h>

extern void* __libc_malloc(size_t size);
extern void* __libc_calloc(size_t count, size_t size);
extern void* __libc_realloc(void* ptr, size_t size);
extern void* __libc_memalign(size_t alignment, size_t size);

static atomic_ulong allocations;

static void counted(void) {
  atomic_fetch_add_explicit(&allocations, 1, memory_order_relaxed);
}

void* malloc(size_t size) {
  counted();
  return __libc_malloc(size);
}

void* calloc(size_t count, size_t size) {
  counted();
  return __libc_calloc(count, size);
}

void* realloc(void* ptr, size_t size) {
  counted();
  return __libc_realloc(ptr, size);
}

void* memalign(size_t alignment, size_t size) {
  counted();
  return __libc_memalign(alignment, size);
}

void* aligned_alloc(size_t alignment, size_t size) {
  counted();
  return __libc_memalign(alignment, size);
}

int posix_memalign(void** out, size_t alignment, size_t size) {
  counted();
  void* p = __libc_memalign(alignment, size);
  if (p == NULL) return ENOMEM;
  *out = p;
  return 0;
}

/* Formats without stdio, which may allocate. */
static size_t append_number(char* out, unsigned long value) {
  char digits[24];
  size_t n = 0;
  do {
    digits[n++] = (char)('0' + value % 10);
    value /= 10;
  } while (value != 0);
  for (size_t i = 0; i < n; ++i) out[i] = digits[n - 1 - i];
  return n;
}

static size_t append_text(char* out, const char* text) {
  size_t n = 0;
  while (text[n] != '\0') {
    out[n] = text[n];
    ++n;
  }
  return n;
}

__attribute__((destructor)) static void report(void) {
  char line[96];
  size_t n = append_text(line, "count_allocs: pid ");
  n += append_number(line + n, (unsigned long)getpid());
  n += append_text(line + n, " allocations ");
  n += append_number(line + n, atomic_load(&allocations));
  line[n++] = '\n';
  ssize_t written = write(STDERR_FILENO, line, n);
  (void)written;
}
