/* Allocation-free clock for the span timeline: CLOCK_MONOTONIC in
   nanoseconds, the timeline's tick. */

#include <time.h>
#include <caml/mlvalues.h>

intnat compi_clock_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value compi_clock_ns_byte(value unit) { return Val_long(compi_clock_ns(unit)); }
