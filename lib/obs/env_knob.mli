(** The environment knobs, parsed and validated in one place.

    Each knob is an integer environment variable with a documented range.
    Unset or empty means "use the default"; anything else must parse as
    an integer inside the range, or the read raises {!Invalid} with a
    one-line message naming the variable, the value and the range.
    Nothing is clamped: a value outside the range is an error, not a
    hint.  [bcc_cli] checks every knob at startup ({!check_all}) and
    exits with {!exit_code} on the first bad one. *)

exception Invalid of string

val exit_code : int
(** 3: the exit status of [bcc_cli] when a knob is invalid. *)

val domains : unit -> int option
(** [BCC_DOMAINS], the {!Par} pool size: [1 .. 64]. *)

val e31_n : unit -> int option
(** [BCC_E31_N], e31's vertex count: [4096 .. 1_000_000]. *)

val check_all : unit -> unit
(** Reads every knob; raises {!Invalid} on the first bad one. *)
