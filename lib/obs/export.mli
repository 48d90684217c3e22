(** The trace exporter: Chrome trace-event JSON (Perfetto-loadable)
    with optional cross-party flow arrows.  Each span's name, id,
    parent, lane, start, duration and attributes land in the trace. *)

(** {1 Chrome trace-event format} *)

(** One causal arrow, drawn from the sender's open slice at
    [flow_send_us] on lane [flow_src_slot] to the receiver's at
    [flow_recv_us] on lane [flow_dst_slot].  Built from the transport's
    off-wire ledger; [flow_id] only needs to be unique within one
    trace. *)
type flow = {
  flow_name : string;
  flow_id : int;
  flow_src_slot : int;
  flow_dst_slot : int;
  flow_send_us : float;
  flow_recv_us : float;
  flow_args : (string * Trace.attr) list;
}

(** [chrome_string ?flows spans] renders a complete trace document:
    thread-name metadata, one [ph:"X"] event per span, then a
    [ph:"s"]/[ph:"f"] pair per flow.  With [flows] absent the output is
    byte-identical to the pre-flow format (the golden the exporter test
    pins). *)
val chrome_string : ?flows:flow list -> Trace.span list -> string

val write_chrome : ?flows:flow list -> string -> Trace.span list -> unit
