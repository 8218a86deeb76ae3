/* CPU time of the calling thread (clock_gettime(CLOCK_THREAD_CPUTIME_ID)).
   Each OCaml domain is a system thread, so this is the domain's own CPU
   time, its share of garbage collection included.  Time the hypervisor
   takes the virtual CPU away (steal) is not counted. */

#include <time.h>
#include <caml/mlvalues.h>

value kbench_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
