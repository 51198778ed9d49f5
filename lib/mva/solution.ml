type t = {
  throughput : float;
  cycle_time : float;
  residence : float array;
  queue_length : float array;
  utilization : float array;
}
