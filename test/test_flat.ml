(* The zero-allocation batched fast path: the flat engine must be an
   exact behavioural twin of the reference interpreter for every bundled
   use case — on IPSA across in-situ patches and runtime table writes,
   and on the PISA baseline — survive relinks with its ring records
   reused, and allocate nothing per packet in steady state. The batch
   entry point's other branches — the interpreter fallback of a design
   with a flat gap, and buffering during an update — must match [inject]
   as well. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* --- unboxed bit-granular accessors ------------------------------------ *)

let bitfield_prop =
  QCheck.Test.make ~count:300 ~name:"Bitfield.get_int/set_int = Bits path"
    QCheck.(triple (int_range 0 40) (int_range 1 56) (int_bound 0xFFFF))
    (fun (off, width, seed) ->
      let buf = Bytes.init 16 (fun i -> Char.chr ((seed + (i * 37)) land 0xFF)) in
      let copy = Bytes.copy buf in
      let via_int = Net.Bitfield.get_int buf ~off ~width in
      let via_bits = Net.Bits.to_int (Net.Bitfield.get buf ~off ~width) in
      let v = (seed * 0x9E3779B9) land ((1 lsl width) - 1) in
      Net.Bitfield.set_int buf ~off ~width v;
      Net.Bitfield.set copy ~off (Net.Bits.of_int ~width v);
      via_int = via_bits
      && Bytes.equal buf copy
      && Net.Bitfield.get_int buf ~off ~width = v)

(* --- streaming CRC ------------------------------------------------------ *)

let crc_stream_prop =
  QCheck.Test.make ~count:300 ~name:"Crc32 streaming ints = digest_int"
    QCheck.(list_of_size Gen.(0 -- 64) (int_bound 255))
    (fun bytes ->
      let s = String.init (List.length bytes) (fun i -> Char.chr (List.nth bytes i)) in
      let st = List.fold_left Prelude.Crc32.feed_int Prelude.Crc32.init_int bytes in
      Prelude.Crc32.finish_int st = Prelude.Crc32.digest_int s)

(* --- TM handoff --------------------------------------------------------- *)

let test_tm_pass () =
  let tm = Ipsa.Tm.create ~capacity:1 () in
  check bool "pass on empty TM" true (Ipsa.Tm.pass tm);
  check int "queue untouched" 0 (Ipsa.Tm.length tm);
  let e, d, hw = Ipsa.Tm.stats tm in
  check int "counted as enqueued" 1 e;
  check int "no drop" 0 d;
  check int "high watermark moved" 1 hw;
  check bool "fill the queue" true (Ipsa.Tm.enqueue tm 42);
  check bool "pass on full TM refuses" false (Ipsa.Tm.pass tm);
  let e, d, _ = Ipsa.Tm.stats tm in
  check int "refusal not enqueued" 2 e;
  check int "refusal counted as drop" 1 d

(* --- flat batch = reference interpreter --------------------------------- *)

(* Twin boot, traffic generators and observation come from [Diffkit]. *)
let observe_ctx = Diffkit.observe
let observe_flat = Diffkit.observe_flat
let build_packet = Diffkit.build_packet

let equivalence_prop name case =
  (* One device pair per property: QCheck drives the same packet
     sequence through both, keeping stateful hit counters in lockstep.
     The flat device must actually compile the whole pipeline into the
     flat subset, or the batch path degenerates into the interpreter. *)
  let devices =
    lazy
      (let (dev_f, _) as p = Diffkit.boot_pair case in
       if not (Ipsa.Device.flat_ready dev_f) then
         Alcotest.failf "%s: flat plan does not cover the pipeline" name;
       p)
  in
  QCheck.Test.make ~count:Diffkit.equivalence_count
    ~name:(name ^ ": flat batch = interpreter")
    Diffkit.packet_spec
    (fun ((_, _, in_port) as spec) ->
      let dev_f, dev_i = Lazy.force devices in
      let bytes = Net.Packet.contents (build_packet spec) in
      observe_flat dev_f bytes ~in_port = observe_ctx dev_i bytes ~in_port)

let equivalence_tests =
  List.map
    (fun (name, case) -> Diffkit.to_alcotest (equivalence_prop name case))
    Diffkit.cases

(* A many-packet batch through one device matches packet-at-a-time
   injection into an identically-configured twin. *)
let test_batch_many () =
  let dev_f, dev_i = Diffkit.boot_pair (Some Harness.Paper.C1) in
  check bool "flat ready" true (Ipsa.Device.flat_ready dev_f);
  let specs = List.init 64 (fun i -> (i mod 5, i, i mod 8)) in
  let mk (_, _, in_port) bytes = Net.Packet.create ~in_port bytes in
  let byte_list =
    List.map (fun spec -> Net.Packet.contents (build_packet spec)) specs
  in
  let batch =
    Array.of_list (List.map2 (fun spec b -> mk spec b) specs byte_list)
  in
  let results = Ipsa.Device.inject_batch dev_f batch in
  List.iteri
    (fun i ((_, _, in_port), bytes) ->
      let expect, _, expect_bytes, _ = observe_ctx dev_i bytes ~in_port in
      let got =
        match results.(i) with Some r -> Some r.Ipsa.Device.br_port | None -> None
      in
      check (Alcotest.option int) (Printf.sprintf "packet %d port" i) expect got;
      check Alcotest.string
        (Printf.sprintf "packet %d bytes" i)
        expect_bytes
        (Net.Packet.contents batch.(i)))
    (List.combine specs byte_list)

(* --- incremental state: patches and table writes on a live device ------- *)

(* One flat device and one interpreter twin walk the whole in-situ patch
   sequence (base, then C1, C2 and C3 applied on top of each other), with
   traffic in between so table counters and flat caches move. *)
let test_patch_sequence () =
  let session_f, dev_f = Harness.Cases.boot_base () in
  let session_i, dev_i = Harness.Cases.boot_base () in
  List.iter
    (fun (name, case) ->
      (match case with
      | None -> ()
      | Some c ->
        ignore (Harness.Cases.apply_case session_f c);
        ignore (Harness.Cases.apply_case session_i c));
      if not (Ipsa.Device.flat_ready dev_f) then
        Alcotest.failf "%s: flat plan does not cover the pipeline" name;
      for i = 0 to 15 do
        let spec = (i mod 5, i, i mod 8) in
        let bytes = Net.Packet.contents (build_packet spec) in
        Diffkit.assert_same_forwarding
          ~what:(Printf.sprintf "%s packet %d" name i)
          (observe_flat dev_f bytes ~in_port:(i mod 8))
          (observe_ctx dev_i bytes ~in_port:(i mod 8))
      done)
    Diffkit.cases

(* Random runtime churn on the dmac table through the controller: after
   every write, a frame to the churned MAC and one random packet must
   leave the flat batch exactly as they leave the interpreter twin, so
   the flat engine's per-table caches follow every generation bump. *)
let table_churn_prop =
  let fixture = lazy (Harness.Cases.boot_base (), Harness.Cases.boot_base ()) in
  QCheck.Test.make ~count:30 ~name:"table add/del: flat batch = interpreter"
    QCheck.(triple (int_range 0 15) bool Diffkit.packet_spec)
    (fun (i, and_delete, spec) ->
      let (session_f, dev_f), (session_i, dev_i) = Lazy.force fixture in
      let mac = Printf.sprintf "02:00:00:00:9%x:%02x" (i land 0xF) i in
      let run cmd =
        List.iter
          (fun s ->
            match Controller.Session.run_script s cmd with
            | Ok _ -> ()
            | Error e -> QCheck.Test.fail_reportf "%s: %s" cmd e)
          [ session_f; session_i ]
      in
      let frame = Net.Flowgen.make_flow ~dst_mac:(Net.Addr.Mac.of_string_exn mac) () in
      let traffic () =
        let in_port = i mod 8 in
        let bridged = Net.Packet.contents (Net.Flowgen.l2 ~in_port frame) in
        let o_f = observe_flat dev_f bridged ~in_port in
        let _, _, in_port_r = spec in
        let random = Net.Packet.contents (build_packet spec) in
        ( o_f,
          o_f = observe_ctx dev_i bridged ~in_port
          && observe_flat dev_f random ~in_port:in_port_r
             = observe_ctx dev_i random ~in_port:in_port_r )
      in
      run (Printf.sprintf "table_add dmac set_out_port 1 %s => %d" mac (i mod 8));
      let (port, _, _, _), after_add = traffic () in
      if port <> Some (i mod 8) then
        QCheck.Test.fail_reportf "flat batch missed the new dmac entry %s" mac;
      let after_del =
        (not and_delete)
        ||
        (run (Printf.sprintf "table_del dmac 1 %s" mac);
         snd (traffic ()))
      in
      after_add && after_del)

(* --- PISA: flat batch = context interpreter ------------------------------ *)

(* The P4 flow's base design on the PISA baseline, populated like
   [Harness.Cases.pisa_case] populates the updated designs. *)
let pisa_base () =
  let prog = Rp4fc.Translate.translate (P4lite.Parser.parse_string Usecases.P4_base.source) in
  let compiled =
    match Rp4bc.Compile.compile_full ~pool:(Ipsa.Device.default_pool ()) prog with
    | Ok c -> c
    | Error errs -> Alcotest.failf "pisa base compile: %s" (String.concat "; " errs)
  in
  let device = Pisa.Device.create ~nstages:8 () in
  (match Pisa.Deploy.install device compiled.Rp4bc.Compile.design with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pisa base install: %s" e);
  (match
     Pisa.Deploy.populate device compiled.Rp4bc.Compile.design
       Usecases.Base_l23.population
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pisa base populate: %s" e);
  device

let pisa_boot = function
  | None -> pisa_base ()
  | Some c -> fst (Harness.Cases.pisa_case c)

(* Twin PISA devices per use case: one forwards through [inject_batch]
   (the path every PISA fabric hop takes), the other through [inject];
   port, metadata, wire bytes and accounting must agree per packet. *)
let pisa_equivalence_prop name case =
  let devices =
    lazy
      (let dev_f = pisa_boot case and dev_i = pisa_boot case in
       if not (Pisa.Device.flat_ready dev_f) then
         Alcotest.failf "%s: pisa flat plan does not cover the design" name;
       (dev_f, dev_i))
  in
  QCheck.Test.make ~count:Diffkit.equivalence_count
    ~name:(name ^ ": pisa flat batch = interpreter")
    Diffkit.packet_spec
    (fun ((_, _, in_port) as spec) ->
      let dev_f, dev_i = Lazy.force devices in
      let bytes = Net.Packet.contents (build_packet spec) in
      let pkt_f = Net.Packet.create ~in_port bytes in
      let pkt_i = Net.Packet.create ~in_port bytes in
      Diffkit.observation_of_result pkt_f (Pisa.Device.inject_batch dev_f [| pkt_f |]).(0)
      = Diffkit.observation_of_ctx pkt_i (Pisa.Device.inject dev_i pkt_i))

let pisa_equivalence_tests =
  List.map
    (fun (name, case) -> Diffkit.to_alcotest (pisa_equivalence_prop name case))
    Diffkit.cases

(* --- relink: the flat plan is rebuilt and the ring keeps its records ---- *)

let test_relink_rebuilds_plan () =
  let session_f, dev_f = Harness.Cases.boot_base () in
  let session_i, dev_i = Harness.Cases.boot_base () in
  check bool "flat ready at boot" true (Ipsa.Device.flat_ready dev_f);
  let bytes =
    Net.Packet.contents (Net.Flowgen.ipv4_udp Usecases.Base_l23.routed_v4_flow)
  in
  (* Run traffic so the ring and per-table caches are warm... *)
  check bool "pre-patch traffic matches" true
    (observe_flat dev_f bytes ~in_port:0 = observe_ctx dev_i bytes ~in_port:0);
  (* ...then patch both devices: ecmp tables created, nexthop freed,
     templates rewritten. The flat plan must be rebuilt against the new
     configuration and the warmed ring records must keep working. *)
  ignore (Harness.Cases.apply_case session_f Harness.Paper.C1);
  ignore (Harness.Cases.apply_case session_i Harness.Paper.C1);
  check bool "flat ready after patch" true (Ipsa.Device.flat_ready dev_f);
  for i = 0 to 15 do
    let b = Net.Packet.contents (build_packet (1, i, i mod 8)) in
    check bool
      (Printf.sprintf "post-patch packet %d matches" i)
      true
      (observe_flat dev_f b ~in_port:(i mod 8)
      = observe_ctx dev_i b ~in_port:(i mod 8))
  done

(* --- the batch path's non-flat branches --------------------------------- *)

(* A design with a flat gap (64-bit metadata arithmetic), with half of
   the destination MACs resolving to a port and the rest missing into the
   64-bit [bump] default. *)
let boot_wide () =
  let prog = Rp4.Parser.parse_string Diffkit.wide_arith_src in
  let c =
    match Rp4bc.Compile.compile_full ~pool:(Ipsa.Device.default_pool ()) prog with
    | Ok c -> c
    | Error errs -> Alcotest.failf "wide compile: %s" (String.concat "; " errs)
  in
  let device = Ipsa.Device.create ~ntsps:8 () in
  (match Ipsa.Device.apply_patch device c.Rp4bc.Compile.patch with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "wide boot: %s" e);
  let wide_map = Option.get (Ipsa.Device.find_table device "wide_map") in
  for i = 0 to 3 do
    Table.insert wide_map
      ~matches:[ Table.Key.M_exact (Net.Addr.Mac.to_bits (Net.Addr.Mac.of_index i)) ]
      ~action:"1"
      ~args:[ Net.Bits.of_int ~width:16 (i + 1) ]
      ()
  done;
  device

(* With no flat plan, [inject_batch] runs every packet on the interpreter:
   port, metadata, bytes and accounting must match [inject] on a twin. *)
let test_batch_flat_gap () =
  let dev_b = boot_wide () and dev_i = boot_wide () in
  check bool "design is off the flat path" false (Ipsa.Device.flat_ready dev_b);
  let in_port i = i mod 8 in
  let batch =
    Array.init 16 (fun i ->
        Net.Flowgen.l2 ~in_port:(in_port i)
          (Net.Flowgen.make_flow ~dst_mac:(Net.Addr.Mac.of_index (i mod 8)) ()))
  in
  let bytes = Array.map Net.Packet.contents batch in
  let results = Ipsa.Device.inject_batch dev_b batch in
  Array.iteri
    (fun i r ->
      let got = Diffkit.observation_of_result batch.(i) r in
      Diffkit.assert_same_forwarding
        ~what:(Printf.sprintf "packet %d" i)
        got
        (Diffkit.observe dev_i bytes.(i) ~in_port:(in_port i));
      (* the misses really ran the 64-bit default action *)
      if i mod 8 >= 4 then
        let _, meta, _, _ = got in
        check (Alcotest.option int)
          (Printf.sprintf "packet %d bumped meta.acc" i)
          (Some 1)
          (Option.map Net.Bits.to_int (List.assoc_opt "acc" meta)))
    results

(* During an update a batch is buffered, not processed: every slot is
   [None], the buffer counter grows by the batch size, and [end_update]
   releases the packets into the output queues exactly as a twin driven
   by [inject] forwards them. *)
let test_batch_during_update () =
  let _, dev = Harness.Cases.boot_base () in
  let _, twin = Harness.Cases.boot_base () in
  let specs = List.init 12 (fun i -> (i mod 5, i, i mod 8)) in
  let bytes = List.map (fun spec -> Net.Packet.contents (build_packet spec)) specs in
  let batch =
    Array.of_list
      (List.map2 (fun (_, _, in_port) b -> Net.Packet.create ~in_port b) specs bytes)
  in
  let buffered () = (Ipsa.Device.stats dev).Ipsa.Device.buffered_during_update in
  let buffered0 = buffered () in
  Ipsa.Device.begin_update dev;
  let results = Ipsa.Device.inject_batch dev batch in
  check bool "every slot is None" true (Array.for_all Option.is_none results);
  check int "buffered_during_update grew by the batch size"
    (buffered0 + Array.length batch)
    (buffered ());
  check int "nothing delivered mid-update" 0 (List.length (Ipsa.Device.collect_all dev));
  Ipsa.Device.end_update dev;
  List.iter2 (fun (_, _, in_port) b -> ignore (observe_ctx twin b ~in_port)) specs bytes;
  let delivered d = List.map Net.Packet.contents (Ipsa.Device.collect_all d) in
  let released = delivered dev in
  check bool "released packets reach the output queues" true (released <> []);
  check (Alcotest.list Alcotest.string) "released = what the twin forwards"
    (delivered twin) released

(* --- steady-state allocation ------------------------------------------- *)

(* The headline property of this layer: after warmup, pushing wire bytes
   through [inject_flat] allocates nothing — no minor-heap words per
   packet beyond measurement noise. *)
let test_zero_alloc () =
  let _, device = Harness.Cases.boot_base () in
  check bool "flat ready" true (Ipsa.Device.flat_ready device);
  let bytes =
    Net.Packet.contents (Net.Flowgen.ipv4_udp Usecases.Base_l23.routed_v4_flow)
  in
  (* Warmup: grow buffers, build the lazy per-table caches, stabilise. *)
  for _ = 1 to 512 do
    ignore (Ipsa.Device.inject_flat device ~in_port:0 bytes)
  done;
  let n = 4096 in
  let before = Gc.allocated_bytes () in
  for _ = 1 to n do
    ignore (Ipsa.Device.inject_flat device ~in_port:0 bytes)
  done;
  let per_pkt = (Gc.allocated_bytes () -. before) /. float_of_int n in
  check bool
    (Printf.sprintf "%.4f bytes allocated per packet" per_pkt)
    true (per_pkt < 1.0);
  (* The fast path still forwards: same port and wire bytes as a
     context-path twin. *)
  let _, dev_i = Harness.Cases.boot_base () in
  let port_i, _, bytes_i, _ = observe_ctx dev_i bytes ~in_port:0 in
  let port_f = Ipsa.Device.inject_flat device ~in_port:0 bytes in
  check (Alcotest.option int) "port matches interpreter" port_i
    (if port_f >= 0 then Some port_f else None);
  check Alcotest.string "wire bytes match interpreter" bytes_i
    (Ipsa.Device.flat_contents device)

let () =
  Alcotest.run "flat"
    [
      ( "primitives",
        [
          Diffkit.to_alcotest bitfield_prop;
          Diffkit.to_alcotest crc_stream_prop;
          Alcotest.test_case "tm pass" `Quick test_tm_pass;
        ] );
      ("equivalence", equivalence_tests);
      ( "incremental",
        [
          Alcotest.test_case "patch sequence" `Quick test_patch_sequence;
          Diffkit.to_alcotest table_churn_prop;
        ] );
      ("pisa", pisa_equivalence_tests);
      ( "batch",
        [
          Alcotest.test_case "many-packet batch" `Quick test_batch_many;
          Alcotest.test_case "relink rebuilds plan" `Quick test_relink_rebuilds_plan;
          Alcotest.test_case "zero allocation" `Quick test_zero_alloc;
          Alcotest.test_case "interpreter fallback on a flat gap" `Quick
            test_batch_flat_gap;
          Alcotest.test_case "buffered during update" `Quick test_batch_during_update;
        ] );
    ]
