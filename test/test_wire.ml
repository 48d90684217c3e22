(* Wire-format tests: round trips for every message type, validating
   decode behaviour on malformed and adversarial inputs. *)

open Ppgr_rng
open Ppgr_grouprank

let rng = Rng.create ~seed:"test-wire"

(* The framed ring-hop message: payload-agnostic blob packing, so it is
   tested over arbitrary byte strings independent of any group. *)
let hop_frame_tests =
  let rejects data =
    try
      ignore (Wire.decode_hop_frame data);
      false
    with Wire.Malformed _ -> true
  in
  [
    Alcotest.test_case "round trip incl. empty payloads" `Quick (fun () ->
        let payloads =
          Array.init 6 (fun i ->
              Bytes.init (i * 7) (fun k -> Char.chr ((i + (k * 13)) land 0xFF)))
        in
        let frame = Wire.encode_hop_frame payloads in
        Alcotest.(check int) "documented size"
          (Wire.hop_frame_bytes
             (Array.to_list (Array.map Bytes.length payloads)))
          (Bytes.length frame);
        let payloads' = Wire.decode_hop_frame frame in
        Alcotest.(check int) "count" (Array.length payloads)
          (Array.length payloads');
        Array.iteri
          (fun i p -> Alcotest.(check bytes) "payload" p payloads'.(i))
          payloads);
    Alcotest.test_case "zero-count frame rejected" `Quick (fun () ->
        (* The runtime never ships an empty vector (n >= 2); a zero
           count on the wire is damage, not data. *)
        Alcotest.(check bool) "raises" true
          (rejects (Wire.encode_hop_frame [||])));
    Alcotest.test_case "payload length past end of frame rejected" `Quick
      (fun () ->
        let frame = Wire.encode_hop_frame [| Bytes.of_string "abcdef" |] in
        (* Inflate the first payload's u32 length beyond the buffer:
           bytes 0..2 are tag + u16 count, 3..6 the length. *)
        Bytes.set frame 3 '\xFF';
        Alcotest.(check bool) "raises" true (rejects frame));
    Alcotest.test_case "wrong tag rejected" `Quick (fun () ->
        let frame = Wire.encode_hop_frame [| Bytes.of_string "abc" |] in
        Bytes.set frame 0 '\x12';
        Alcotest.(check bool) "raises" true (rejects frame));
    Alcotest.test_case "every truncation rejected" `Quick (fun () ->
        let frame =
          Wire.encode_hop_frame
            [| Bytes.of_string "abcdef"; Bytes.empty; Bytes.of_string "xyz" |]
        in
        for cut = 0 to Bytes.length frame - 1 do
          Alcotest.(check bool)
            (Printf.sprintf "cut at %d" cut)
            true
            (rejects (Bytes.sub frame 0 cut))
        done);
    Alcotest.test_case "trailing bytes rejected" `Quick (fun () ->
        let frame = Wire.encode_hop_frame [| Bytes.of_string "abc" |] in
        Alcotest.(check bool) "raises" true
          (rejects (Bytes.cat frame (Bytes.of_string "x"))));
    Alcotest.test_case "lying payload length rejected" `Quick (fun () ->
        let frame = Wire.encode_hop_frame [| Bytes.of_string "abc" |] in
        (* Bump the u32 length prefix of the only payload past the end. *)
        Bytes.set frame 6 '\xFF';
        Alcotest.(check bool) "raises" true (rejects frame));
    Alcotest.test_case "cipher batches survive framing untouched" `Quick
      (fun () ->
        let module G = (val Ppgr_group.Ec_group.ecc_tiny ()) in
        let module W = Wire.Make (G) in
        let _, y = W.E.keygen rng in
        let batches =
          Array.init 4 (fun j ->
              W.encode_cipher_batch
                (Array.init (3 + j) (fun i -> W.E.encrypt_exp_int rng y (i mod 2))))
        in
        let unpacked = Wire.decode_hop_frame (Wire.encode_hop_frame batches) in
        Array.iteri
          (fun j b ->
            Alcotest.(check bytes) "identical payload bytes" b unpacked.(j);
            ignore (W.decode_cipher_batch unpacked.(j)))
          batches);
  ]

let group_message_tests (name, g) =
  let module G = (val g : Ppgr_group.Group_intf.GROUP) in
  let module W = Wire.Make (G) in
  [
    Alcotest.test_case (name ^ ": pubkey round trip") `Quick (fun () ->
        let y = G.pow_gen (G.random_scalar rng) in
        Alcotest.(check bool) "equal" true
          (G.equal y (W.decode_pubkey (W.encode_pubkey y))));
    Alcotest.test_case (name ^ ": zkp transcript round trip") `Quick (fun () ->
        let x = G.random_scalar rng in
        let y = G.pow_gen x in
        let t = W.Z.prove_interactive rng ~secret:x ~statement:y ~n_verifiers:4 in
        let t' = W.decode_zkp (W.encode_zkp t) in
        Alcotest.(check bool) "verifies after round trip" true
          (W.Z.verify_transcript ~statement:y t'));
    Alcotest.test_case (name ^ ": cipher batch round trip") `Quick (fun () ->
        let _, y = W.E.keygen rng in
        let batch =
          Array.init 9 (fun i -> W.E.encrypt_exp_int rng y (i mod 2))
        in
        let data = W.encode_cipher_batch batch in
        Alcotest.(check int) "documented size" (W.cipher_batch_bytes 9)
          (Bytes.length data);
        let batch' = W.decode_cipher_batch data in
        Array.iteri
          (fun i c ->
            Alcotest.(check bool) "c" true (G.equal c.W.E.c batch'.(i).W.E.c);
            Alcotest.(check bool) "c'" true (G.equal c.W.E.c' batch'.(i).W.E.c'))
          batch);
    Alcotest.test_case (name ^ ": corrupt element rejected") `Quick (fun () ->
        let y = G.pow_gen (G.random_scalar rng) in
        let data = W.encode_pubkey y in
        (* Flip a bit of the element encoding and expect validation to
           catch it (either wrong decode or off-group). *)
        let pos = Bytes.length data - 1 in
        Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor 1));
        Alcotest.(check bool) "rejected or different" true
          (try
             let y' = W.decode_pubkey data in
             not (G.equal y y')
           with Wire.Malformed _ -> true));
  ]

(* A rich checkpoint exemplar: 2-party snapshot with closed rounds and
   an in-progress round, so the fuzz and regression batteries cover
   every section of the frame. *)
let exemplar_snap () =
  {
    Wire.ts_n = 2;
    ts_send_seq = [| [| 3; 1 |]; [| 0; 2 |] |];
    ts_recv_seq = [| [| 3; 2 |]; [| 1; 2 |] |];
    ts_counters = [| 4; 1; 1; 2; 0; 3; 9; 40; 2600; 12; 204; 55 |];
    ts_phys_sent = [| 1300; 1300 |];
    ts_phys_received = [| 1290; 1310 |];
    ts_retrans_by_src = [| 3; 1 |];
    ts_env_by_src = [| 20; 20 |];
    ts_link_msgs = [| [| 0; 20 |]; [| 20; 0 |] |];
    ts_link_bytes = [| [| 0; 1300 |]; [| 1300; 0 |] |];
    ts_link_retrans = [| [| 0; 3 |]; [| 1; 0 |] |];
    ts_fault_draws = [| [| 0; 22 |]; [| 21; 0 |] |];
    ts_digest = Bytes.init 32 (fun i -> Char.chr (i * 5 land 0xFF));
    ts_step = "encrypt";
    ts_rounds = [ ("announce", [ (0, 1, 120); (1, 0, 120) ]) ];
    ts_round = [ (0, 1, 64) ];
  }

let exemplar_checkpoint () =
  {
    Wire.ck_step = 2;
    ck_n = 2;
    ck_bytes_total = 1234;
    ck_msg_total = 7;
    ck_sent = [| 600; 634 |];
    ck_received = [| 634; 600 |];
    ck_enc = [| Bytes.of_string "enc-a"; Bytes.of_string "enc-b" |];
    ck_v = [||];
    ck_snap = exemplar_snap ();
  }

(* Fuzzing the full codec surface: one exemplar message per tag, then
   truncations, single-bit flips and random garbage against its decoder.
   A decoder may refuse (Wire.Malformed) or decode the damage to a
   *different* message — it must never crash with anything else, spin,
   or silently decode back to the original. *)
let fuzz_tests =
  let module G = (val Ppgr_group.Ec_group.ecc_tiny ()) in
  let module W = Wire.Make (G) in
  (* Every surface: (name, exemplar encoding, decode-then-reencode).
     The formats are canonical, so re-encoding a decode of damaged
     bytes must reproduce those damaged bytes' meaning, not the
     original's. *)
  let surfaces : (string * Bytes.t * (Bytes.t -> Bytes.t)) list =
    let x = G.random_scalar rng in
    let y = G.pow_gen x in
    let zkp = W.Z.prove_interactive rng ~secret:x ~statement:y ~n_verifiers:3 in
    let batch = Array.init 5 (fun i -> W.E.encrypt_exp_int rng y (i mod 2)) in
    let frame_payloads =
      [| W.encode_cipher_batch batch; Bytes.of_string "opaque"; Bytes.empty |]
    in
    let envelope_payload = W.encode_pubkey y in
    [
      ( "pubkey (0x10)",
        W.encode_pubkey y,
        fun b -> W.encode_pubkey (W.decode_pubkey b) );
      ( "zkp (0x11)",
        W.encode_zkp zkp,
        fun b -> W.encode_zkp (W.decode_zkp b) );
      ( "cipher-batch (0x12)",
        W.encode_cipher_batch batch,
        fun b -> W.encode_cipher_batch (W.decode_cipher_batch b) );
      ( "hop-frame (0x13)",
        Wire.encode_hop_frame frame_payloads,
        fun b -> Wire.encode_hop_frame (Wire.decode_hop_frame b) );
      ( "envelope (0x14)",
        Wire.encode_envelope ~src:3 ~dst:1 ~seq:42 envelope_payload,
        fun b ->
          let e = Wire.decode_envelope b in
          Wire.encode_envelope ~src:e.Wire.env_src ~dst:e.Wire.env_dst
            ~seq:e.Wire.env_seq e.Wire.env_payload );
      ( "checkpoint (0x16)",
        Wire.encode_checkpoint (exemplar_checkpoint ()),
        fun b -> Wire.encode_checkpoint (Wire.decode_checkpoint b) );
    ]
  in
  let flip_bit data i =
    let out = Bytes.copy data in
    let byte = i / 8 and bit = i mod 8 in
    Bytes.set out byte
      (Char.chr (Char.code (Bytes.get out byte) lxor (1 lsl bit)));
    out
  in
  let prop name gen p =
    QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:400 ~name gen p)
  in
  List.concat_map
    (fun (name, original, decode_reencode) ->
      let len = Bytes.length original in
      [
        Alcotest.test_case (name ^ ": every truncation rejected") `Quick
          (fun () ->
            for cut = 0 to len - 1 do
              Alcotest.(check bool)
                (Printf.sprintf "cut at %d" cut)
                true
                (try
                   ignore (decode_reencode (Bytes.sub original 0 cut));
                   false
                 with Wire.Malformed _ -> true)
            done);
        prop
          (name ^ ": single-bit flip never crashes or round-trips")
          (QCheck2.Gen.int_range 0 ((8 * len) - 1))
          (fun i ->
            match decode_reencode (flip_bit original i) with
            | exception Wire.Malformed _ -> true
            | reencoded -> not (Bytes.equal reencoded original));
        prop
          (name ^ ": random garbage never crashes")
          QCheck2.Gen.(
            (* Half the cases keep the valid tag byte so the fuzz digs
               past the first check. *)
            pair bool (string_size ~gen:char (int_range 0 (2 * len))))
          (fun (keep_tag, junk) ->
            let data = Bytes.of_string junk in
            if keep_tag && Bytes.length data > 0 && len > 0 then
              Bytes.set data 0 (Bytes.get original 0);
            match decode_reencode data with
            | exception Wire.Malformed _ -> true
            | _ -> true);
      ])
    surfaces
  @ [
      Alcotest.test_case "envelope: every single-bit flip CRC-rejected" `Quick
        (fun () ->
          (* CRC-32 detects all single-bit errors, so unlike the other
             surfaces the envelope must refuse every one of them. *)
          let env =
            Wire.encode_envelope ~src:0 ~dst:2 ~seq:9
              (Bytes.of_string "chaos-conformance-payload")
          in
          for i = 0 to (8 * Bytes.length env) - 1 do
            Alcotest.(check bool)
              (Printf.sprintf "bit %d" i)
              true
              (try
                 ignore (Wire.decode_envelope (flip_bit env i));
                 false
               with Wire.Malformed _ -> true)
          done);
      Alcotest.test_case "envelope round trip" `Quick (fun () ->
          let payload = Bytes.of_string "some payload" in
          let e =
            Wire.decode_envelope
              (Wire.encode_envelope ~src:5 ~dst:0 ~seq:77 payload)
          in
          Alcotest.(check int) "src" 5 e.Wire.env_src;
          Alcotest.(check int) "dst" 0 e.Wire.env_dst;
          Alcotest.(check int) "seq" 77 e.Wire.env_seq;
          Alcotest.(check bytes) "payload" payload e.Wire.env_payload;
          Alcotest.(check int) "documented overhead"
            (Bytes.length payload + Wire.envelope_overhead)
            (Bytes.length
               (Wire.encode_envelope ~src:5 ~dst:0 ~seq:77 payload)));
      Alcotest.test_case "cipher batch with lying count rejected" `Quick
        (fun () ->
          (* A corrupted u16 count must be caught by arithmetic, not by
             attempting a giant allocation. *)
          let module G = (val Ppgr_group.Ec_group.ecc_tiny ()) in
          let module W = Wire.Make (G) in
          let _, y = W.E.keygen rng in
          let data =
            W.encode_cipher_batch
              (Array.init 3 (fun i -> W.E.encrypt_exp_int rng y (i mod 2)))
          in
          Bytes.set data 1 '\xFF';
          Alcotest.(check bool) "raises" true
            (try
               ignore (W.decode_cipher_batch data);
               false
             with Wire.Malformed _ -> true));
    ]

(* Checkpoint/restart frames.  They ride the CRC-32 trailer, so random
   damage is CRC-rejected; the interesting paths are the post-CRC
   validations, reached by re-sealing a tampered body with a fresh
   CRC. *)
let ack_checkpoint_tests =
  let rejects what thunk =
    Alcotest.(check bool) what true
      (try
         ignore (thunk ());
         false
       with Wire.Malformed _ -> true)
  in
  let reseal data =
    let out = Bytes.copy data in
    let total = Bytes.length out in
    let crc = Wire.crc32 ~pos:0 ~len:(total - 4) out in
    Bytes.set out (total - 4) (Char.chr ((crc lsr 24) land 0xFF));
    Bytes.set out (total - 3) (Char.chr ((crc lsr 16) land 0xFF));
    Bytes.set out (total - 2) (Char.chr ((crc lsr 8) land 0xFF));
    Bytes.set out (total - 1) (Char.chr (crc land 0xFF));
    out
  in
  let flip_bit data i =
    let out = Bytes.copy data in
    let byte = i / 8 and bit = i mod 8 in
    Bytes.set out byte
      (Char.chr (Char.code (Bytes.get out byte) lxor (1 lsl bit)));
    out
  in
  [
    Alcotest.test_case "checkpoint round trip preserves every section"
      `Quick (fun () ->
        let c = exemplar_checkpoint () in
        let c' = Wire.decode_checkpoint (Wire.encode_checkpoint c) in
        Alcotest.(check int) "step" c.Wire.ck_step c'.Wire.ck_step;
        Alcotest.(check int) "n" c.Wire.ck_n c'.Wire.ck_n;
        Alcotest.(check int) "bytes_total" c.Wire.ck_bytes_total
          c'.Wire.ck_bytes_total;
        Alcotest.(check int) "msg_total" c.Wire.ck_msg_total
          c'.Wire.ck_msg_total;
        Alcotest.(check (array int)) "sent" c.Wire.ck_sent c'.Wire.ck_sent;
        Alcotest.(check (array int)) "received" c.Wire.ck_received
          c'.Wire.ck_received;
        Alcotest.(check bool) "enc blobs" true (c.Wire.ck_enc = c'.Wire.ck_enc);
        Alcotest.(check bool) "v blobs" true (c.Wire.ck_v = c'.Wire.ck_v);
        let s = c.Wire.ck_snap and s' = c'.Wire.ck_snap in
        Alcotest.(check int) "snap n" s.Wire.ts_n s'.Wire.ts_n;
        Alcotest.(check (array int)) "counters" s.Wire.ts_counters
          s'.Wire.ts_counters;
        Alcotest.(check bytes) "digest" s.Wire.ts_digest s'.Wire.ts_digest;
        Alcotest.(check string) "step name" s.Wire.ts_step s'.Wire.ts_step;
        Alcotest.(check bool) "send_seq" true
          (s.Wire.ts_send_seq = s'.Wire.ts_send_seq);
        Alcotest.(check bool) "fault draws" true
          (s.Wire.ts_fault_draws = s'.Wire.ts_fault_draws);
        Alcotest.(check bool) "rounds" true (s.Wire.ts_rounds = s'.Wire.ts_rounds);
        Alcotest.(check bool) "in-progress round" true
          (s.Wire.ts_round = s'.Wire.ts_round));
    Alcotest.test_case "checkpoint: every single-bit flip CRC-rejected"
      `Quick (fun () ->
        let data = Wire.encode_checkpoint (exemplar_checkpoint ()) in
        for i = 0 to (8 * Bytes.length data) - 1 do
          rejects
            (Printf.sprintf "bit %d" i)
            (fun () -> Wire.decode_checkpoint (flip_bit data i))
        done);
    Alcotest.test_case "zero-party checkpoint rejected" `Quick (fun () ->
        let c =
          {
            Wire.ck_step = 0;
            ck_n = 0;
            ck_bytes_total = 0;
            ck_msg_total = 0;
            ck_sent = [||];
            ck_received = [||];
            ck_enc = [||];
            ck_v = [||];
            ck_snap =
              {
                (exemplar_snap ()) with
                Wire.ts_n = 0;
                ts_send_seq = [||];
                ts_recv_seq = [||];
                ts_phys_sent = [||];
                ts_phys_received = [||];
                ts_retrans_by_src = [||];
                ts_env_by_src = [||];
                ts_link_msgs = [||];
                ts_link_bytes = [||];
                ts_link_retrans = [||];
                ts_fault_draws = [||];
              };
          }
        in
        rejects "zero parties" (fun () ->
            Wire.decode_checkpoint (Wire.encode_checkpoint c)));
    Alcotest.test_case "checkpoint counter vector of wrong length rejected"
      `Quick (fun () ->
        let c =
          {
            (exemplar_checkpoint ()) with
            Wire.ck_snap =
              { (exemplar_snap ()) with Wire.ts_counters = Array.make 5 0 };
          }
        in
        rejects "5 counters" (fun () ->
            Wire.decode_checkpoint (Wire.encode_checkpoint c)));
    Alcotest.test_case "checkpoint with short digest rejected" `Quick
      (fun () ->
        let c =
          {
            (exemplar_checkpoint ()) with
            Wire.ck_snap =
              { (exemplar_snap ()) with Wire.ts_digest = Bytes.make 16 'x' };
          }
        in
        rejects "16-byte digest" (fun () ->
            Wire.decode_checkpoint (Wire.encode_checkpoint c)));
    Alcotest.test_case "checkpoint party count / snapshot mismatch rejected"
      `Quick (fun () ->
        let c = { (exemplar_checkpoint ()) with Wire.ck_n = 3 } in
        (* ck_sent must also claim 3 parties to reach the snap check. *)
        let c =
          { c with Wire.ck_sent = [| 1; 2; 3 |]; ck_received = [| 3; 2; 1 |] }
        in
        rejects "ck_n=3 over a 2-party snap" (fun () ->
            Wire.decode_checkpoint (Wire.encode_checkpoint c)));
    Alcotest.test_case
      "checkpoint vector count past end of buffer rejected (resealed)"
      `Quick (fun () ->
        let data = Wire.encode_checkpoint (exemplar_checkpoint ()) in
        (* Inflate ck_sent's u16 count (offset 13 after tag, step, n,
           bytes_total, msg_total) and re-seal the CRC: the count must
           be refused by arithmetic against the remaining bytes, not by
           attempting the allocation — the decode_hop_frame lesson. *)
        Bytes.set data 13 '\xFF';
        Bytes.set data 14 '\xFF';
        rejects "count 65535" (fun () ->
            Wire.decode_checkpoint (reseal data)));
    Alcotest.test_case "checkpoint with a trailing limbo section rejected"
      `Quick (fun () ->
        (* Older frames ended in a u16 count of held reorder envelopes,
           a section the snapshot no longer has; resealed, that trailing
           count must be refused, not ignored. *)
        let data = Wire.encode_checkpoint (exemplar_checkpoint ()) in
        let body = Bytes.sub data 0 (Bytes.length data - 4) in
        let old = Bytes.cat body (Bytes.make 6 '\x00') in
        rejects "empty limbo section" (fun () ->
            Wire.decode_checkpoint (reseal old)));
  ]

let () =
  Alcotest.run "wire"
    [
      ("hop-frame", hop_frame_tests);
      ("fuzz", fuzz_tests);
      ("ack-checkpoint", ack_checkpoint_tests);
      ("dl", group_message_tests ("DL", Ppgr_group.Dl_group.dl_test_64 ()));
      ("ec", group_message_tests ("EC", Ppgr_group.Ec_group.ecc_tiny ()));
      ("ecc-160", group_message_tests ("ECC-160", Ppgr_group.Ec_group.ecc_160 ()));
    ]
