/* pcprof: an LD_PRELOAD sampling profiler of the interrupted PC.

   A CLOCK_MONOTONIC POSIX timer interrupts the program with SIGPROF 1999
   times a second (a prime, so the rate does not lock onto periodic
   work).  It runs on the kernel's high-resolution timers; a CPU-time
   timer is only checked at the scheduler tick (250 Hz on many kernels),
   and for a CPU-bound single-threaded program the wall clock samples the
   same profile.  The C handler runs at once, wherever the
   program is, so every instruction is equally likely to be sampled: unlike
   an OCaml-level signal handler it does not wait for an allocation or a
   poll point.  Each sample keeps the interrupted PC (from the signal's
   ucontext) followed by the callers glibc's backtrace() unwinds to.

   At exit the samples are written to PCPROF_OUT (default pcprof.<pid>.out):
   one "obj BIAS START END PATH" line per executable segment of each loaded
   object, then one line of hex addresses per sample, leaf first.
   bench/pcprof/report.sh resolves them to symbols.

   Build with bench/pcprof/build.sh; run with
     LD_PRELOAD=/path/to/pcprof.so PCPROF_OUT=prof.out PROGRAM ARGS...
*/
#define _GNU_SOURCE
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#if !defined(__x86_64__)
#error "pcprof reads the interrupted PC from an x86-64 ucontext"
#endif

#define HZ 1999
#define MAX_DEPTH 64
/* 2^22 words (32 MiB of bss, touched only as samples arrive): about
   60,000 samples at a typical OCaml stack depth. */
#define BUF_WORDS (1u << 22)

static uintptr_t buf[BUF_WORDS];
static size_t buf_used;
static unsigned long samples, lost;
static volatile sig_atomic_t active;
static timer_t timer;

static void on_prof(int sig, siginfo_t *si, void *uc) {
  (void)sig;
  (void)si;
  if (!active) return;
  void *frames[MAX_DEPTH + 2];
  int n = backtrace(frames, MAX_DEPTH + 2);
  uintptr_t pc = (uintptr_t)((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
  /* The unwind starts in this handler and crosses the signal trampoline;
     the interrupted frame is the one whose address is the ucontext PC. */
  int from = n < 2 ? n : 2;
  for (int i = 0; i < n; i++)
    if ((uintptr_t)frames[i] == pc) { from = i + 1; break; }
  size_t need = (size_t)(n - from) + 2;
  if (buf_used + need > BUF_WORDS) { lost++; return; }
  buf[buf_used++] = (uintptr_t)(n - from) + 1;
  buf[buf_used++] = pc;
  for (int i = from; i < n; i++) buf[buf_used++] = (uintptr_t)frames[i];
  samples++;
}

static int write_obj(struct dl_phdr_info *info, size_t size, void *out_) {
  (void)size;
  FILE *out = out_;
  const char *path = info->dlpi_name && info->dlpi_name[0] ? info->dlpi_name : "";
  char exe[4096];
  if (!path[0]) {
    ssize_t k = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (k <= 0) return 0; /* vdso and the like */
    exe[k] = '\0';
    path = exe;
  }
  for (int i = 0; i < info->dlpi_phnum; i++) {
    const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
    if (ph->p_type == PT_LOAD && (ph->p_flags & PF_X)) {
      uintptr_t start = info->dlpi_addr + ph->p_vaddr;
      fprintf(out, "obj %lx %lx %lx %s\n", (unsigned long)info->dlpi_addr,
              (unsigned long)start, (unsigned long)(start + ph->p_memsz), path);
    }
  }
  return 0;
}

__attribute__((destructor)) static void pcprof_stop(void) {
  if (!active) return;
  timer_delete(timer);
  active = 0;
  const char *path = getenv("PCPROF_OUT");
  char def[64];
  if (!path || !path[0]) {
    snprintf(def, sizeof def, "pcprof.%d.out", (int)getpid());
    path = def;
  }
  FILE *out = fopen(path, "w");
  if (!out) { perror("pcprof: PCPROF_OUT"); return; }
  dl_iterate_phdr(write_obj, out);
  for (size_t i = 0; i < buf_used;) {
    size_t n = buf[i++];
    for (size_t j = 0; j < n; j++)
      fprintf(out, j ? " %lx" : "%lx", (unsigned long)buf[i + j]);
    fputc('\n', out);
    i += n;
  }
  fclose(out);
  fprintf(stderr, "pcprof: %lu samples (%lu lost to a full buffer) -> %s\n",
          samples, lost, path);
}

__attribute__((constructor)) static void pcprof_start(void) {
  /* backtrace() loads the unwinder on its first call, which must not
     happen inside the signal handler. */
  void *prime[4];
  backtrace(prime, 4);
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) { perror("pcprof: sigaction"); return; }
  struct sigevent ev;
  memset(&ev, 0, sizeof ev);
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &ev, &timer) != 0) { perror("pcprof: timer_create"); return; }
  long ns = 1000000000L / HZ;
  struct itimerspec it = {{ns / 1000000000L, ns % 1000000000L},
                          {ns / 1000000000L, ns % 1000000000L}};
  active = 1;
  if (timer_settime(timer, 0, &it, NULL) != 0) {
    perror("pcprof: timer_settime");
    active = 0;
    timer_delete(timer);
  }
}
