(* No-op stub kept for perfbench/main.ml; see proc.mli. *)

let maybe_run_worker () = ()
