(** Engine statistics: the measurable quantities every experiment reports.

    The device already attributes page I/O by class; this record adds the
    engine-level counters (user bytes for write-amp, probe counts for
    read-amp, filter effectiveness, stall bursts, tombstone latency). *)

type worker = {
  mutable w_jobs : int;  (** background jobs executed on this worker slot *)
  mutable w_busy_ns : int;
      (** wall-clock nanoseconds the slot spent inside job execution —
          divide by elapsed wall time for per-worker utilization *)
  mutable w_bytes : int;  (** input bytes moved by the slot's jobs *)
}
(** Per-worker-slot counters for the multi-worker compaction lane. A
    "slot" is a logical scheduler worker (0 .. compaction_workers-1),
    not a fixed domain: the lane assigns the lowest free slot at
    dispatch, so slot 0 saturates first and the tail slots light up
    only when jobs genuinely overlap. *)

type t = {
  mutable user_puts : int;
  mutable user_deletes : int;
  mutable user_gets : int;
  mutable user_scans : int;
  mutable user_bytes_ingested : int;  (** logical key+value bytes from puts *)
  mutable gets_found : int;
  mutable runs_probed : int;  (** sorted runs consulted across all gets *)
  mutable filter_negatives : int;  (** run probes skipped by a point filter *)
  mutable filter_false_positives : int;
      (** filter said maybe, run had no visible entry *)
  mutable range_filter_skips : int;
  mutable flushes : int;
  mutable compactions : int;
  mutable trivial_moves : int;
      (** files relocated down without rewriting (no I/O) *)
  mutable compaction_bytes_read : int;
  mutable compaction_bytes_written : int;
  mutable compaction_wall_ns : int;
      (** wall-clock nanoseconds spent inside merge execution (all
          subcompactions of a merge count once, by the slowest) *)
  mutable subcompactions : int;
      (** parallel key-range partitions executed across all compactions;
          equals [compactions] when running serially *)
  mutable write_stalls : int;
      (** inline writes that ran a flush and its cascade themselves *)
  mutable write_slowdowns : int;
      (** backpressure (lane width >= 1): writes delayed by the bounded
          slowdown sleep ([write_slowdown_trigger]) *)
  mutable write_stops : int;
      (** backpressure (lane width >= 1): writes that blocked on the scheduler
          condition variable ([write_stop_trigger]) *)
  mutable corruptions_detected : int;
      (** typed [Corruption] errors surfaced by reads, scrubs, or recovery *)
  mutable tables_quarantined : int;
      (** SSTs fenced off after a corruption (reads over their range fail
          loudly instead of silently serving older versions) *)
  mutable failsafe_entries : int;
      (** transitions into fail-safe read-only mode (a flush or
          compaction failed and the latch tripped) *)
  mutable resumes : int;  (** successful [Db.try_resume] calls *)
  mutable scrub_runs : int;  (** completed [Db.verify_integrity] passes *)
  mutable scrub_errors : int;  (** defects found across all scrub passes *)
  mutable scrub_runs_scheduled : int;
      (** scrub passes kicked off by [Config.scrub_interval] (a subset of
          [scrub_runs] once they complete) *)
  mutable ecc_repairs : int;
      (** pages reconstructed in place from the Reed–Solomon parity
          section — reads served and rot healed instead of quarantined *)
  mutable ecc_unrecoverable : int;
      (** ECC repair attempts that failed (rot beyond the per-stripe
          parity budget); the normal quarantine path took over *)
  ecc_repair_ns : Lsm_util.Histogram.t;
      (** wall-clock nanoseconds per successful in-place ECC repair
          (reconstruction + patch + re-read) *)
  stall_burst_bytes : Lsm_util.Histogram.t;
      (** bytes of flush+compaction work performed synchronously inside a
          user write — the latency-spike proxy (§2.2.3, SILK) *)
  compaction_burst_bytes : Lsm_util.Histogram.t;
      (** bytes moved per compaction: the I/O burst distribution (E5) *)
  get_run_probes : Lsm_util.Histogram.t;  (** runs probed per get (read amp) *)
  write_latency_ns : Lsm_util.Histogram.t;
      (** foreground wall-clock nanoseconds per [Db.write]/[apply_batch]
          call, including any backpressure delay — the tail-latency
          measure the [--stall] bench reports (p50/p99/p999) *)
  slowdown_delay_ns : Lsm_util.Histogram.t;
      (** nanoseconds of proportional backpressure delay injected per
          slowed-down write (between the slowdown and stop triggers the
          delay ramps linearly with compaction debt) *)
  mutable sched_workers : worker array;
      (** one entry per scheduler worker slot; sized by the scheduler at
          creation ([[||]] at width 0, where the caller is the lane) *)
  mutable sched_edits_parked : int;
      (** background jobs that finished out of enqueue order and had to
          park their version edit until the commit sequencer reached
          them — the price of out-of-order execution *)
  sched_queue_depth : Lsm_util.Histogram.t;
      (** uncommitted scheduler tickets observed at each enqueue (gauge
          sampled on the producer side) *)
  sched_parked_edits : Lsm_util.Histogram.t;
      (** parked (finished-but-uncommitted) edits observed at each park
          event — how far ahead of the sequencer the workers run *)
}

val create : unit -> t
val clear : t -> unit

val provision_workers : t -> int -> unit
(** (Re)size [sched_workers] to [n] zeroed slots. Called by the
    scheduler when a lane attaches; idempotent for a same-size lane. *)

val write_amp_engine : t -> float
(** (flush+compaction bytes written) / user bytes — the engine-level WA. *)

val avg_probes_per_get : t -> float
val pp : Format.formatter -> t -> unit
