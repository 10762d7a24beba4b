(** Leftover of the removed pipe worker backend.

    Worker processes are now always loopback TCP fleet children
    ({!Remote}); [--backend procs] is a CLI alias for that fleet. *)

val maybe_run_worker : unit -> unit
(** A no-op. It exists only because [perfbench/main.ml] still calls it,
    and it goes with the next change to the benchmark. Entry points
    call {!Remote.maybe_run_worker} instead. *)
