(** The trace exporter: Chrome trace-event JSON, loadable in Perfetto
    or chrome://tracing.  It is the one file rendering of the recorded
    spans (the {!Summary} table is the other view): each span's name,
    id, parent, lane, start, duration and attributes land in the
    trace.

    The JSON is rendered with a hand-rolled emitter — the repo has no
    JSON dependency — and is deliberately minimal: complete events
    ([ph:"X"]) on one process, one thread id per domain slot, span
    attributes in [args].  Cross-party causality is rendered as
    flow events ([ph:"s"]/[ph:"f"]) paired from the transport's
    [msg.send]/[msg.accept] instants: Perfetto draws an arrow from the
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

(* Message arrows.  The transport marks each logical message with a
   [msg.send] instant where it is posted and a [msg.accept] instant where
   its receiver accepts a copy, both keyed by (src, dst, seq).  Each
   accept pairs with the latest unpaired send of its key earlier in the
   list: a resumed attempt re-posts a killed message under the same key,
   and a re-elected session restarts every seq at 0.  A send left
   unpaired, the message a crash stopped, draws no arrow. *)
let int_attr (sp : Trace.span) k =
  match List.assoc_opt k sp.attrs with Some (Trace.Int v) -> v | _ -> -1

let message_pairs (spans : Trace.span list) =
  let key sp = (int_attr sp "src", int_attr sp "dst", int_attr sp "seq") in
  let sends = Hashtbl.create 64 in
  List.filter_map
    (fun (sp : Trace.span) ->
      match sp.name with
      | "msg.send" ->
          Hashtbl.add sends (key sp) sp;
          None
      | "msg.accept" ->
          Option.map
            (fun send ->
              Hashtbl.remove sends (key sp);
              (send, sp))
            (Hashtbl.find_opt sends (key sp))
      | _ -> None)
    spans

(* One end of arrow [id], at its instant's lane and time. *)
let flow_event b ~id ~name ~args (sp : Trace.span) ~finish =
  Buffer.add_string b "{\"name\":";
  buf_add_json_string b name;
  Buffer.add_string b ",\"cat\":\"ppgr.flow\",\"ph\":";
  Buffer.add_string b (if finish then "\"f\",\"bp\":\"e\"" else "\"s\"");
  Buffer.add_string b
    (Printf.sprintf ",\"id\":%d,\"pid\":0,\"tid\":%d,\"ts\":%.1f,\"args\":" id
       sp.slot sp.start_us);
  buf_add_attrs b args;
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

let chrome_string (spans : Trace.span list) =
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
  List.iteri
    (fun id ((send : Trace.span), (accept : Trace.span)) ->
      let name =
        match List.assoc_opt "step" accept.attrs with
        | Some (Trace.Str step) -> "msg." ^ step
        | _ -> "msg"
      in
      let args =
        List.map
          (fun k -> (k, Trace.Int (int_attr accept k)))
          [ "src"; "dst"; "seq"; "bytes" ]
        @ [ ("send_span", Trace.Int send.parent); ("recv_span", Trace.Int accept.parent) ]
      in
      Buffer.add_string b ",\n";
      flow_event b ~id ~name ~args send ~finish:false;
      Buffer.add_string b ",\n";
      flow_event b ~id ~name ~args accept ~finish:true)
    (message_pairs spans);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_chrome path spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (chrome_string spans))
