(** The trace exporter: Chrome trace-event JSON (Perfetto-loadable)
    with cross-party flow arrows.  Each span's name, id,
    parent, lane, start, duration and attributes land in the trace. *)

(** {1 Chrome trace-event format} *)

(** [chrome_string spans] renders a complete trace document:
    thread-name metadata, one [ph:"X"] event per span, then a
    [ph:"s"]/[ph:"f"] flow pair per delivered message.  A message's pair
    joins a [msg.accept] instant to the latest unpaired [msg.send] of
    the same [(src, dst, seq)] earlier in [spans]; it is named
    [msg.<step>], sits at the two instants' lanes and times, and carries
    [src], [dst], [seq], [bytes] and the two instants' parents as
    [send_span]/[recv_span].  Spans without [msg.*] instants render
    byte-identically to the pre-flow format (the golden the exporter
    test pins). *)
val chrome_string : Trace.span list -> string

val write_chrome : string -> Trace.span list -> unit
