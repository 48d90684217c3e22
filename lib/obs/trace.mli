(** Span-based protocol tracer (see the implementation header for the
    full model).

    Spans are nestable named intervals with attributes; when tracing is
    enabled, every span additionally carries the deltas of all
    registered {!Metrics} probes over its extent.  Disabled tracing
    costs one ref read per call site. *)

type attr = Int of int | Float of float | Str of string | Bool of bool

type span = {
  id : int;
  parent : int; (* span id, or -1 for a root *)
  name : string;
  slot : int; (* domain lane that recorded the span *)
  seq : int; (* per-slot open order *)
  start_us : float;
  mutable dur_us : float;
  mutable attrs : (string * attr) list;
}

val enabled : unit -> bool
val set_enabled : bool -> unit

val reset : unit -> unit
(** Drop all recorded spans and sequence counters.  Main domain only,
    outside parallel regions. *)

val with_span : ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span.  The span closes (and is
    recorded) even if [f] raises.  Probe deltas over the extent of [f]
    are attached as integer attributes named after the probes. *)

val instant : ?attrs:(string * attr) list -> string -> unit
(** A zero-duration marker span (no probe sampling). *)

val add_attr : string -> attr -> unit
(** Append an attribute to the innermost open span of the calling
    domain; no-op when disabled or outside any span. *)

val spans : unit -> span list
(** All recorded spans in deterministic (slot, open-order) order.  Call
    on the main domain outside parallel regions. *)

val capture : (unit -> 'a) -> 'a * span list
(** [capture f] runs [f] with tracing enabled on a fresh buffer and
    returns its result with the recorded spans; previous enabled state
    and buffers are restored/cleared. *)

(**/**)

val span_id : slot:int -> seq:int -> int
