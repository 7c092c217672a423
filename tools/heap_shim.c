// LD_PRELOAD shim behind tools/heap_top.sh: attributes the live host heap
// to allocation sites and keeps the attribution from the moment the total
// live bytes peaked.
//
// malloc, calloc, realloc, free and the memalign family are forwarded to
// glibc's own __libc_* entry points. Each block is recorded against its
// site: the first three return addresses on its call stack that lie in the
// main executable, so operator new and other library frames are skipped. A
// side table maps every live block to its site and size for free().
//
// The peak costs O(1) per call. When the total reaches a new maximum the
// peak version advances; a site copies its live bytes into its snapshot the
// first time it changes after that, so at exit each site's bytes at the
// peak are its snapshot if the snapshot is of the last version, else its
// live bytes.
//
// At exit it writes to the file named by HEAP_TOP_OUT (stderr if unset):
//   peak <bytes> <blocks>
//   <bytes> <blocks> <pc1> <pc2> <pc3>     one line per site live at the peak
// with each pc an offset into the main executable minus one (inside the
// call instruction), ready for `addr2line -e <exe>`; 0 marks a missing frame.
//
//   cc -O2 -shared -fPIC -o heap_shim.so tools/heap_shim.c
#define _GNU_SOURCE
#include <elf.h>
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <link.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

extern void* __libc_malloc(size_t size);
extern void* __libc_calloc(size_t n, size_t size);
extern void* __libc_realloc(void* p, size_t size);
extern void* __libc_memalign(size_t align, size_t size);
extern void __libc_free(void* p);

enum { kFrames = 3, kDepth = 10 };

typedef struct {
  uintptr_t pc[kFrames];
  uint64_t live_bytes, live_blocks;
  uint64_t snap_bytes, snap_blocks;
  uint64_t version;  // peak version the snapshot belongs to
  int used;
} Site;

typedef struct {
  uintptr_t ptr;  // 0: empty slot
  uint64_t size;
  uint32_t site;
} Block;

// Site 0 collects blocks whose site did not fit in the table.
#define SITE_CAP (1u << 16)
static Site* g_sites;
static Block* g_blocks;
static size_t g_block_cap;
static size_t g_block_used;

static uint64_t g_live, g_live_blocks;
static uint64_t g_peak, g_peak_blocks, g_version;

static uintptr_t g_base, g_text_lo, g_text_hi;  // main executable
static int g_ready;
static volatile char g_lock;
static __thread int t_busy __attribute__((tls_model("initial-exec")));

static void lock(void) {
  while (__atomic_test_and_set(&g_lock, __ATOMIC_ACQUIRE)) {
  }
}
static void unlock(void) { __atomic_clear(&g_lock, __ATOMIC_RELEASE); }

static void* map_zeroed(size_t bytes) {
  void* p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? NULL : p;
}

static uint64_t mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  return x ^ (x >> 33);
}

static uint32_t site_index(const uintptr_t pc[kFrames]) {
  const uint64_t h = mix(pc[0] ^ mix(pc[1] ^ mix(pc[2])));
  for (uint32_t probe = 0; probe < SITE_CAP; ++probe) {
    const uint32_t i = (uint32_t)((h + probe) & (SITE_CAP - 1));
    if (i == 0) continue;
    Site* s = &g_sites[i];
    if (!s->used) {
      s->used = 1;
      memcpy(s->pc, pc, sizeof s->pc);
      return i;
    }
    if (memcmp(s->pc, pc, sizeof s->pc) == 0) return i;
  }
  return 0;
}

static uint32_t caller_site(void) {
  void* frames[kDepth];
  const int n = backtrace(frames, kDepth);
  uintptr_t pc[kFrames] = {0, 0, 0};
  int k = 0;
  for (int i = 0; i < n && k < kFrames; ++i) {
    const uintptr_t a = (uintptr_t)frames[i];
    if (a >= g_text_lo && a < g_text_hi) pc[k++] = a - g_base - 1;
  }
  return site_index(pc);
}

static void site_add(uint32_t i, int64_t bytes, int64_t blocks) {
  Site* s = &g_sites[i];
  if (s->version != g_version) {
    s->snap_bytes = s->live_bytes;
    s->snap_blocks = s->live_blocks;
    s->version = g_version;
  }
  s->live_bytes += (uint64_t)bytes;
  s->live_blocks += (uint64_t)blocks;
}

static size_t slot_of(uintptr_t p) { return (size_t)mix(p) & (g_block_cap - 1); }

static void block_put(Block b) {
  size_t i = slot_of(b.ptr);
  while (g_blocks[i].ptr != 0) i = (i + 1) & (g_block_cap - 1);
  g_blocks[i] = b;
  ++g_block_used;
}

static int grow_blocks(void) {
  Block* old = g_blocks;
  const size_t old_cap = g_block_cap;
  Block* fresh = map_zeroed(2 * old_cap * sizeof(Block));
  if (fresh == NULL) return 0;
  g_blocks = fresh;
  g_block_cap = 2 * old_cap;
  g_block_used = 0;
  for (size_t i = 0; i < old_cap; ++i)
    if (old[i].ptr != 0) block_put(old[i]);
  munmap(old, old_cap * sizeof(Block));
  return 1;
}

// Removes `p` from the block table; returns 0 when it was not recorded.
static int block_take(uintptr_t p, Block* out) {
  size_t i = slot_of(p);
  while (g_blocks[i].ptr != p) {
    if (g_blocks[i].ptr == 0) return 0;
    i = (i + 1) & (g_block_cap - 1);
  }
  *out = g_blocks[i];
  // Backward-shift deletion keeps every probe chain unbroken.
  size_t hole = i;
  for (size_t j = (i + 1) & (g_block_cap - 1); g_blocks[j].ptr != 0;
       j = (j + 1) & (g_block_cap - 1)) {
    const size_t home = slot_of(g_blocks[j].ptr);
    if (((j - home) & (g_block_cap - 1)) >= ((j - hole) & (g_block_cap - 1))) {
      g_blocks[hole] = g_blocks[j];
      hole = j;
    }
  }
  g_blocks[hole].ptr = 0;
  --g_block_used;
  return 1;
}

static void record(void* p, size_t size) {
  if (p == NULL || !g_ready || t_busy) return;
  t_busy = 1;
  const uint32_t site = caller_site();
  lock();
  if (2 * (g_block_used + 1) <= g_block_cap || grow_blocks()) {
    Block b = {(uintptr_t)p, size, site};
    block_put(b);
    site_add(site, (int64_t)size, 1);
    g_live += size;
    ++g_live_blocks;
    if (g_live > g_peak) {
      g_peak = g_live;
      g_peak_blocks = g_live_blocks;
      ++g_version;
    }
  }
  unlock();
  t_busy = 0;
}

// Drops `p` from the books; returns its recorded size (0 if untracked).
static uint64_t forget(void* p) {
  if (p == NULL || !g_ready) return 0;
  lock();
  Block b = {0, 0, 0};
  if (block_take((uintptr_t)p, &b)) {
    site_add(b.site, -(int64_t)b.size, -1);
    g_live -= b.size;
    --g_live_blocks;
  }
  unlock();
  return b.size;
}

void* malloc(size_t size) {
  void* p = __libc_malloc(size);
  record(p, size);
  return p;
}

void* calloc(size_t n, size_t size) {
  void* p = __libc_calloc(n, size);
  record(p, n * size);  // calloc has already failed if this wraps
  return p;
}

void* realloc(void* old, size_t size) {
  if (old == NULL) return malloc(size);
  if (size == 0) {
    free(old);
    return NULL;
  }
  // Forget first: once glibc has moved the block, `old` may be handed out
  // again before this call returns.
  const uint64_t old_size = forget(old);
  void* p = __libc_realloc(old, size);
  if (p != NULL)
    record(p, size);
  else if (old_size != 0)
    record(old, old_size);  // failed: the old block stands
  return p;
}

void free(void* p) {
  forget(p);
  __libc_free(p);
}

void* memalign(size_t align, size_t size) {
  void* p = __libc_memalign(align, size);
  record(p, size);
  return p;
}

void* aligned_alloc(size_t align, size_t size) { return memalign(align, size); }

int posix_memalign(void** out, size_t align, size_t size) {
  if (align % sizeof(void*) != 0 || (align & (align - 1)) != 0) return EINVAL;
  void* p = memalign(align, size);
  if (p == NULL) return ENOMEM;
  *out = p;
  return 0;
}

static int find_main(struct dl_phdr_info* info, size_t size, void* data) {
  (void)size;
  (void)data;
  g_base = info->dlpi_addr;
  g_text_lo = UINTPTR_MAX;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)* ph = &info->dlpi_phdr[i];
    if (ph->p_type != PT_LOAD || !(ph->p_flags & PF_X)) continue;
    const uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
    if (lo < g_text_lo) g_text_lo = lo;
    if (lo + ph->p_memsz > g_text_hi) g_text_hi = lo + ph->p_memsz;
  }
  return 1;  // the first object is the main program
}

__attribute__((constructor)) static void heap_shim_init(void) {
  t_busy = 1;
  // backtrace() loads the unwinder and allocates on its first call.
  void* warm[2];
  backtrace(warm, 2);
  dl_iterate_phdr(find_main, NULL);
  g_sites = map_zeroed(SITE_CAP * sizeof(Site));
  g_block_cap = 1u << 20;
  g_blocks = map_zeroed(g_block_cap * sizeof(Block));
  g_ready = g_sites != NULL && g_blocks != NULL && g_text_hi > g_text_lo;
  t_busy = 0;
}

__attribute__((destructor)) static void heap_shim_report(void) {
  if (!g_ready) return;
  t_busy = 1;
  lock();
  const char* path = getenv("HEAP_TOP_OUT");
  const int fd = path != NULL ? open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644) : 2;
  if (fd >= 0) {
    char line[160];
    int len = snprintf(line, sizeof line, "peak %llu %llu\n", (unsigned long long)g_peak,
                       (unsigned long long)g_peak_blocks);
    if (write(fd, line, (size_t)len) != len) len = -1;
    for (uint32_t i = 0; i < SITE_CAP && len >= 0; ++i) {
      const Site* s = &g_sites[i];
      const int snap = s->version == g_version;
      const uint64_t bytes = snap ? s->snap_bytes : s->live_bytes;
      const uint64_t blocks = snap ? s->snap_blocks : s->live_blocks;
      if (bytes == 0) continue;
      len = snprintf(line, sizeof line, "%llu %llu %llx %llx %llx\n", (unsigned long long)bytes,
                     (unsigned long long)blocks, (unsigned long long)s->pc[0],
                     (unsigned long long)s->pc[1], (unsigned long long)s->pc[2]);
      if (write(fd, line, (size_t)len) != len) len = -1;
    }
    if (fd != 2) close(fd);
  }
  g_ready = 0;
  unlock();
}
