/* LD_PRELOAD sampler: where does an unmodified binary spend its CPU time?
 *
 *   gcc -O2 -shared -fPIC -o sigprof.so sigprof.c
 *   SIGPROF_OUT=run.prof LD_PRELOAD=./sigprof.so <program> <args>
 *   python3 report.py run.prof
 *
 * ITIMER_PROF delivers SIGPROF every SIGPROF_US microseconds of process CPU
 * time (default 1000); the handler stores the interrupted instruction
 * pointer, nothing else. At exit /proc/self/maps and the raw PCs go to
 * SIGPROF_OUT (default sigprof.out) for report.py to symbolise. x86-64
 * Linux only. The buffer is fixed (4 M samples, about an hour at the
 * default rate); samples past it are counted and dropped.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (4u << 20)

static uint64_t *pcs;
static volatile uint32_t n_pcs, n_dropped;

static void on_prof(int sig, siginfo_t *info, void *uc) {
    (void)sig;
    (void)info;
    if (n_pcs < MAX_SAMPLES)
        pcs[n_pcs++] = (uint64_t)((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
    else
        n_dropped++;
}

static void set_timer(long us) {
    struct itimerval it = {{us / 1000000, us % 1000000}, {us / 1000000, us % 1000000}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void sigprof_start(void) {
    const char *us = getenv("SIGPROF_US");
    long period = us ? atol(us) : 1000;
    struct sigaction sa;
    pcs = malloc(sizeof(uint64_t) * MAX_SAMPLES);
    if (!pcs || period <= 0)
        return;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    set_timer(period);
}

__attribute__((destructor)) static void sigprof_dump(void) {
    const char *path = getenv("SIGPROF_OUT");
    char line[4096];
    FILE *maps, *out;
    set_timer(0);
    if (!pcs || !(out = fopen(path ? path : "sigprof.out", "w")))
        return;
    if ((maps = fopen("/proc/self/maps", "r"))) {
        while (fgets(line, sizeof line, maps))
            fprintf(out, "map %s", line);
        fclose(maps);
    }
    fprintf(out, "dropped %u\n", n_dropped);
    for (uint32_t i = 0; i < n_pcs; i++)
        fprintf(out, "pc %llx\n", (unsigned long long)pcs[i]);
    fclose(out);
}
