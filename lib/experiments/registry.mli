(** Registry of all reproduced tables, figures and cross-checks. *)

type experiment = {
  name : string;  (** Id used by [swap_cli experiment <id>] and benches. *)
  description : string;
  run : unit -> string;  (** Produces the full text report. *)
  datasets : (unit -> (string * string) list) option;
      (** Machine-readable output: [(filename, csv contents)] pairs,
          for experiments with natural data series. *)
}

val all : experiment list
(** Every experiment, in paper order. *)

val find : string -> experiment option

val run_all : ?jobs:int -> unit -> string
(** Concatenated reports of every experiment, in paper order.  Runs one
    experiment per domain-pool task ([jobs] defaults to the pool's
    global setting); the output is identical for any jobs count. *)
