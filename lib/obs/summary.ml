(** The per-phase × per-party summary table.

    The protocol layers attribute all metered work to spans carrying a
    ["party"] attribute (one span per party per step, one per ring
    hop), and all wire traffic to spans carrying ["party"] plus
    ["bytes_out"]/["bytes_in"].  Those spans tile a run exactly — every
    group operation and every on-wire byte lands in exactly one of
    them — so the column sums of this table equal the global meters for
    the same run, which is the consistency check the CLI prints.

    Container spans (a phase root, the full-run span) also carry probe
    deltas, but are excluded here precisely because they re-count their
    children; they exist for the trace view, not the table. *)

(* Attribute keys that name a dimension rather than a measured
   quantity; everything else integer-valued is summed as a metric. *)
let dimension_keys =
  [
    "party"; "hop"; "member"; "owner"; "layer"; "comparators"; "n"; "l"; "k";
    "h"; "round"; "src"; "dst"; "bit"; "span_id"; "parent"; "step"; "jobs";
    "shard";
  ]

type row = {
  phase : string; (* span name, e.g. "runtime.ring" *)
  party : int;
  mutable wall_us : float;
  mutable metrics : (string * int) list; (* summed integer attrs *)
}

let int_attr name (sp : Trace.span) =
  match List.assoc_opt name sp.attrs with
  | Some (Trace.Int v) -> Some v
  | _ -> None

let metric_attrs (sp : Trace.span) =
  List.filter_map
    (fun (k, v) ->
      match v with
      | Trace.Int n when not (List.mem k dimension_keys) -> Some (k, n)
      | _ -> None)
    sp.attrs

let merge_metrics acc more =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some v0 -> List.map (fun (k', v') -> if k' = k then (k', v0 + v) else (k', v')) acc
      | None -> acc @ [ (k, v) ])
    acc more

(** Aggregate party-attributed spans into (phase, party) rows, in first
    appearance order. *)
let rows (spans : Trace.span list) : row list =
  let out = ref [] in
  List.iter
    (fun sp ->
      match int_attr "party" sp with
      | None -> ()
      | Some party -> (
          let key r = r.phase = sp.name && r.party = party in
          match List.find_opt key !out with
          | Some r ->
              r.wall_us <- r.wall_us +. sp.dur_us;
              r.metrics <- merge_metrics r.metrics (metric_attrs sp)
          | None ->
              out :=
                !out
                @ [
                    {
                      phase = sp.name;
                      party;
                      wall_us = sp.dur_us;
                      metrics = metric_attrs sp;
                    };
                  ]))
    spans;
  !out

(** Sum one metric over all rows (0 when absent everywhere). *)
let total rows name =
  List.fold_left
    (fun acc r -> acc + Option.value ~default:0 (List.assoc_opt name r.metrics))
    0 rows

let total_wall_us rows = List.fold_left (fun a r -> a +. r.wall_us) 0. rows

(** Metric column names in first-appearance order. *)
let columns rows =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ])
        acc r.metrics)
    [] rows

(** Render the table; one line per (phase, party), a TOTAL line last. *)
let to_string rows =
  let cols = columns rows in
  let b = Buffer.create 1024 in
  let phase_w =
    List.fold_left (fun w r -> max w (String.length r.phase)) 12 rows
  in
  Buffer.add_string b (Printf.sprintf "%-*s %6s" phase_w "phase" "party");
  List.iter (fun c -> Buffer.add_string b (Printf.sprintf " %12s" c)) cols;
  Buffer.add_string b (Printf.sprintf " %10s\n" "wall_ms");
  List.iter
    (fun r ->
      Buffer.add_string b (Printf.sprintf "%-*s %6d" phase_w r.phase r.party);
      List.iter
        (fun c ->
          Buffer.add_string b
            (Printf.sprintf " %12d"
               (Option.value ~default:0 (List.assoc_opt c r.metrics))))
        cols;
      Buffer.add_string b (Printf.sprintf " %10.2f\n" (r.wall_us /. 1e3)))
    rows;
  Buffer.add_string b (Printf.sprintf "%-*s %6s" phase_w "TOTAL" "");
  List.iter (fun c -> Buffer.add_string b (Printf.sprintf " %12d" (total rows c))) cols;
  Buffer.add_string b (Printf.sprintf " %10.2f\n" (total_wall_us rows /. 1e3));
  Buffer.contents b

(** Roll the table up per shard: party-attributed spans that also carry
    a ["shard"] attribute aggregate into one row per shard (row key
    ["shard-<i>"], party = shard index), preserving the tiling property
    within the sharded portion of a run.  Spans without a ["shard"]
    attribute (e.g. the merge committee) are skipped — sum them
    separately via {!rows}. *)
let by_shard (spans : Trace.span list) : row list =
  let out = ref [] in
  List.iter
    (fun sp ->
      match (int_attr "party" sp, int_attr "shard" sp) with
      | Some _, Some shard -> (
          let name = Printf.sprintf "shard-%d" shard in
          match List.find_opt (fun r -> r.party = shard && r.phase = name) !out with
          | Some r ->
              r.wall_us <- r.wall_us +. sp.dur_us;
              r.metrics <- merge_metrics r.metrics (metric_attrs sp)
          | None ->
              out :=
                !out
                @ [
                    {
                      phase = name;
                      party = shard;
                      wall_us = sp.dur_us;
                      metrics = metric_attrs sp;
                    };
                  ])
      | _ -> ())
    spans;
  List.sort (fun a b -> compare a.party b.party) !out
