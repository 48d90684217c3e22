(** The trace exporter: Chrome trace-event JSON, loadable in Perfetto
    or chrome://tracing.  It is the one file rendering of the recorded
    spans (the {!Summary} table is the other view): each span's name,
    id, parent, lane, start, duration and attributes land in the
    trace.

    The JSON is rendered with a hand-rolled emitter — the repo has no
    JSON dependency — and is deliberately minimal: complete events
    ([ph:"X"]) on one process, one thread id per domain slot, span
    attributes in [args].  Cross-party causality is rendered as
    flow events ([ph:"s"]/[ph:"f"]): Perfetto draws an arrow from the
    sender's slice to the receiver's, binding each endpoint to the
    slice enclosing its (pid, tid, ts) coordinate. *)

let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let buf_add_attr b = function
  | Trace.Int i -> Buffer.add_string b (string_of_int i)
  | Trace.Float f -> Buffer.add_string b (Printf.sprintf "%.6g" f)
  | Trace.Str s -> buf_add_json_string b s
  | Trace.Bool v -> Buffer.add_string b (if v then "true" else "false")

let buf_add_attrs b attrs =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      buf_add_json_string b k;
      Buffer.add_char b ':';
      buf_add_attr b v)
    attrs;
  Buffer.add_char b '}'

(** {1 Chrome trace-event format} *)

(** One causal arrow: drawn from the sender's open slice at
    [flow_send_us] on lane [flow_src_slot] to the receiver's at
    [flow_recv_us] on lane [flow_dst_slot].  The transport builds these
    from its off-wire ledger ([Transport.flows]); the ids only need to
    be unique within one trace. *)
type flow = {
  flow_name : string;
  flow_id : int;
  flow_src_slot : int;
  flow_dst_slot : int;
  flow_send_us : float;
  flow_recv_us : float;
  flow_args : (string * Trace.attr) list;
}

let flow_event b f ~finish =
  Buffer.add_string b "{\"name\":";
  buf_add_json_string b f.flow_name;
  Buffer.add_string b ",\"cat\":\"ppgr.flow\",\"ph\":";
  Buffer.add_string b (if finish then "\"f\",\"bp\":\"e\"" else "\"s\"");
  Buffer.add_string b (Printf.sprintf ",\"id\":%d,\"pid\":0,\"tid\":%d,\"ts\":" f.flow_id
                         (if finish then f.flow_dst_slot else f.flow_src_slot));
  Buffer.add_string b
    (Printf.sprintf "%.1f" (if finish then f.flow_recv_us else f.flow_send_us));
  Buffer.add_string b ",\"args\":";
  buf_add_attrs b f.flow_args;
  Buffer.add_char b '}'

let chrome_event b (sp : Trace.span) =
  Buffer.add_string b "{\"name\":";
  buf_add_json_string b sp.name;
  Buffer.add_string b ",\"cat\":\"ppgr\",\"ph\":\"X\",\"ts\":";
  Buffer.add_string b (Printf.sprintf "%.1f" sp.start_us);
  Buffer.add_string b ",\"dur\":";
  Buffer.add_string b (Printf.sprintf "%.1f" sp.dur_us);
  Buffer.add_string b (Printf.sprintf ",\"pid\":0,\"tid\":%d,\"args\":" sp.slot);
  buf_add_attrs b (("span_id", Trace.Int sp.id) :: ("parent", Trace.Int sp.parent) :: sp.attrs);
  Buffer.add_char b '}'

let chrome_string ?(flows = []) (spans : Trace.span list) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  (* Name the per-slot tracks so Perfetto shows "main" / "worker k". *)
  List.iteri
    (fun i slot ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           slot
           (if slot = 0 then "main" else Printf.sprintf "worker-%d" slot)))
    (List.sort_uniq compare (List.map (fun (sp : Trace.span) -> sp.slot) spans));
  List.iter
    (fun sp ->
      Buffer.add_string b ",\n";
      chrome_event b sp)
    spans;
  List.iter
    (fun f ->
      Buffer.add_string b ",\n";
      flow_event b f ~finish:false;
      Buffer.add_string b ",\n";
      flow_event b f ~finish:true)
    flows;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_chrome ?flows path spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (chrome_string ?flows spans))
