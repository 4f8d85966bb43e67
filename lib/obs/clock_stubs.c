/* CLOCK_MONOTONIC in integer nanoseconds.
 *
 * The OCaml stdlib's Unix module has gettimeofday but no clock_gettime,
 * and a wall clock steps under NTP or a manual reset. Latency
 * histograms, span durations and request deadlines need a clock that
 * only moves forward, so this reads the kernel's monotonic clock.
 * 63-bit OCaml ints hold about 146 years of nanoseconds.
 */

#include <caml/mlvalues.h>

#include <time.h>

CAMLprim value dp_clock_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
