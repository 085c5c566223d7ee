(** Exporters: Chrome trace-event JSON (Perfetto / about://tracing)
    and a flat metrics snapshot.

    The trace file is the JSON *array* format: a top-level list of
    event objects with ["ts"] in microseconds, ["pid"]/["tid"] lanes
    (one tid per domain), metadata events naming the process and
    threads.  The event builders are exposed so other timeline sources
    (e.g. the simulated [Des.Trace]) render through the same format. *)

val duration :
  phase:[ `Begin | `End ] -> name:string -> tid:int -> ts_us:float -> Json.t
(** A "B"/"E" duration event. *)

val complete : name:string -> tid:int -> ts_us:float -> dur_us:float -> Json.t
(** An "X" complete event (span with an explicit duration). *)

val instant : name:string -> tid:int -> ts_us:float -> Json.t
(** An "i" instant event (thread scope). *)

val process_name : string -> Json.t
val thread_name : tid:int -> string -> Json.t
(** "M" metadata events labelling the pid / a tid lane. *)

val sampling_stats :
  recorded:int ->
  dropped:int ->
  sampled_out:int ->
  emitted:int ->
  (string * Json.t) list ->
  Json.t
(** A "trace_stats" metadata event carrying explicit loss accounting;
    the extra fields are appended to its [args].  Every bounded
    exporter (runtime trace, sim-time Gantt) embeds one of these so
    truncation is never silent. *)

val trace_json : ?max_events:int -> unit -> Json.t
(** Render the buffered {!Trace} events, timestamps rebased to start
    near 0, preceded by a "trace_stats" metadata event (recorded /
    ring-dropped incl. per-domain / sampled_out / emitted counts) and
    process/thread metadata.

    When [max_events] is given and the buffers hold more events, B/E
    pairs are collapsed into "X" complete events and spans/instants are
    deterministically 1-in-k sampled to fit the budget; the stats event
    then also reports [sample_every] and the count of [unpaired] B/E
    orphans (ends whose begins were lost to ring wrap, or still-open
    spans). *)

val write_trace : ?max_events:int -> string -> unit

val metrics_json : unit -> Json.t
(** Render {!Metrics.snapshot} as [{"counters", "gauges", "hists",
    "trace"}]: ["hists"] renders every {!Hist} summary with
    count/sum/min/max/mean, p50/p90/p99 estimates and its non-zero
    [lo, hi, count] buckets; ["trace"] surfaces the span tracer's
    recorded/dropped counts (total and per domain). *)

val write_metrics : string -> unit
