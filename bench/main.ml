(* The evaluation harness: regenerates every figure of the paper
   (Fig. 2(a-d), Fig. 3(a-b)), the VI-B analysis table, the DESIGN.md
   ablations, and a Bechamel micro-benchmark table.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig2 fig3a   # a subset
   Sections: calibrate fig2 fig3a fig3b analysis ablations micro.  An
   unknown name is an error (exit 2).  Repeated, gated performance
   measurements live in perfbench/ (see BENCHMARK.json). *)

let sections =
  [ "calibrate"; "fig2"; "fig3a"; "fig3b"; "analysis"; "ablations"; "micro" ]

let sections_requested =
  match Array.to_list Sys.argv with
  | _ :: (_ :: _ as rest) -> rest
  | _ -> sections

let () =
  match List.filter (fun s -> not (List.mem s sections)) sections_requested with
  | [] -> ()
  | unknown ->
      Printf.eprintf "bench: unknown section%s %s; valid sections: %s\n"
        (if List.length unknown > 1 then "s" else "")
        (String.concat ", " unknown)
        (String.concat " " sections);
      exit 2

let want s = List.mem s sections_requested

let () =
  let rng = Ppgr_rng.Rng.create ~seed:"ppgr-bench-main" in
  Printf.printf "Privacy Preserving Group Ranking - evaluation harness\n";
  Printf.printf "(shapes reproduce the paper's Fig. 2-3; absolute numbers are this machine's)\n";
  (* Calibration is needed by most sections; run it once. *)
  let t0 = Unix.gettimeofday () in
  let cals, field =
    Calibrate.run
      Ppgr_group.
        [
          Dl_group.dl_1024 ();
          Dl_group.dl_2048 ();
          Dl_group.dl_3072 ();
          Ec_group.ecc_160 ();
          Ec_group.ecc_224 ();
          Ec_group.ecc_256 ();
        ]
      rng
  in
  let dl1024, dl2048, dl3072, ecc160, ecc224, ecc256 =
    match cals with
    | [ a; b; c; d; e; f ] -> (a, b, c, d, e, f)
    | _ -> assert false
  in
  let field_cal = field.Calibrate.f_median in
  if want "calibrate" then begin
    Printf.printf "\n== Calibration (measured on this machine; s/mult median of %d interleaved passes, min-max) ==\n"
      Calibrate.passes;
    List.iter (fun c -> Format.printf "%a@." Calibrate.pp_group_cal c) cals;
    Printf.printf "Z_p field (192-bit): %.3g s/mult (%.3g-%.3g)\n" field_cal
      field.Calibrate.f_min field.Calibrate.f_max
  end;
  if want "fig2" then Figures.fig2 ~dl:dl1024 ~ecc:ecc160 ~field_cal ();
  if want "fig3a" then
    Figures.fig3a
      ~levels:[ (ecc160, dl1024); (ecc224, dl2048); (ecc256, dl3072) ]
      ~field_cal ();
  if want "fig3b" then Figures.fig3b ~dl:dl1024 ~ecc:ecc160 ~field_cal ();
  if want "analysis" then Figures.analysis ();
  if want "ablations" then Figures.ablations ();
  if want "micro" then Micro.run ();
  Printf.printf "\nTotal bench time: %.1f s\n" (Unix.gettimeofday () -. t0)
