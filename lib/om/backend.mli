(** The name of the order-maintenance structure, {!Om}.

    There is one backend, so nothing here selects anything. This module
    exists solely because the benchmark's [perfbench/main.ml] writes
    [om_backend] into its [env] block, and the benchmark's directory is
    frozen until its next change; that change deletes this module. *)

type name = [ `List ]

val to_string : name -> string
(** ["list"]. *)

val default : unit -> name
(** [`List]. *)
