(* The whole-pipeline decision diagram: the compiled FDD must be an exact
   behavioural twin of the flat batch path and the reference interpreter
   for every bundled use case; its incremental
   update (memoised resplice over the blast radius) must produce roots
   physically equal to a from-scratch recompile; its rendering is pinned
   by golden files; and the walk allocates (next to) nothing per packet.

   All traffic generation and twin plumbing comes from [Diffkit]. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- three-way equivalence ---------------------------------------------- *)

let equivalence_prop name case =
  (* One device triple per property: QCheck drives the same packet
     sequence through all three, keeping stateful hit counters in
     lockstep. The fdd device must actually compile the whole pipeline,
     or the property degenerates. *)
  let devices =
    lazy
      (let (dev_d, _, _) as t = Diffkit.boot_triple case in
       if not (Ipsa.Device.fdd_ready dev_d) then
         Alcotest.failf "%s: fdd does not cover the pipeline" name;
       t)
  in
  QCheck.Test.make ~count:Diffkit.equivalence_count
    ~name:(name ^ ": fdd = flat = interpreter")
    Diffkit.packet_spec
    (fun ((_, _, in_port) as spec) ->
      let dev_d, dev_f, dev_i = Lazy.force devices in
      let bytes = Net.Packet.contents (Diffkit.build_packet spec) in
      let d = Diffkit.observe_fdd dev_d bytes ~in_port in
      let f = Diffkit.observe_flat dev_f bytes ~in_port in
      let i = Diffkit.observe dev_i bytes ~in_port in
      d = f && f = i)

let equivalence_tests =
  List.map
    (fun (name, case) -> Diffkit.to_alcotest (equivalence_prop name case))
    Diffkit.cases

(* --- incremental update = from-scratch recompile ------------------------- *)

(* The oracle: because nodes are hash-consed in a store that survives
   updates, a sound incremental resplice must leave the diagram at the
   *same physical roots* a fresh compile of the current state reaches.
   [refdd ~fresh:true] bypasses the per-slot memo but shares the store,
   so pointer equality is exactly "the memo never kept a stale node". *)
let roots device = Ipsa.Fdd.roots device.Ipsa.Device.fdd

let assert_splice_equals_rebuild what device =
  Ipsa.Device.refdd device;
  let i1, e1 = roots device in
  Ipsa.Device.refdd ~fresh:true device;
  let i2, e2 = roots device in
  check bool (what ^ ": ingress root survives the oracle") true (i1 == i2);
  check bool (what ^ ": egress root survives the oracle") true (e1 == e2)

(* Across the full in-situ patch sequence: every paper use case applied
   to one device, with traffic in between so table counters move. *)
let test_patch_splice_equals_rebuild () =
  let session, device = Harness.Cases.boot_base () in
  assert_splice_equals_rebuild "boot" device;
  List.iter
    (fun (name, case) ->
      (match case with
      | None -> ()
      | Some c -> ignore (Harness.Cases.apply_case session c));
      for i = 0 to 15 do
        ignore
          (Ipsa.Device.inject_fdd device ~in_port:(i mod 8)
             (Net.Packet.contents (Diffkit.build_packet (i mod 5, i, i mod 8))))
      done;
      assert_splice_equals_rebuild name device)
    Diffkit.cases

(* Across random runtime table churn: adds and deletes through the
   controller must at most resplice — never leave a stale subdiagram. *)
let table_churn_prop =
  let fixture = lazy (Harness.Cases.boot_base ()) in
  QCheck.Test.make ~count:30
    ~name:"table add/del: incremental resplice = from-scratch rebuild"
    QCheck.(pair (int_range 0 15) bool)
    (fun (i, and_delete) ->
      let session, device = Lazy.force fixture in
      let mac = Printf.sprintf "02:00:00:00:9%x:%02x" (i land 0xF) i in
      let run cmd =
        match Controller.Session.run_script session cmd with
        | Ok _ -> ()
        | Error e -> QCheck.Test.fail_reportf "%s: %s" cmd e
      in
      run (Printf.sprintf "table_add dmac set_out_port 1 %s => %d" mac (i mod 8));
      Ipsa.Device.refdd device;
      let i1, e1 = roots device in
      Ipsa.Device.refdd ~fresh:true device;
      let i2, e2 = roots device in
      let after_add = i1 == i2 && e1 == e2 in
      let after_del =
        if not and_delete then true
        else begin
          run (Printf.sprintf "table_del dmac 1 %s" mac);
          Ipsa.Device.refdd device;
          let i1, e1 = roots device in
          Ipsa.Device.refdd ~fresh:true device;
          let i2, e2 = roots device in
          i1 == i2 && e1 == e2
        end
      in
      after_add && after_del)

(* --- readiness and splice telemetry -------------------------------------- *)

let test_telemetry () =
  let session, device = Harness.Cases.boot_base () in
  check bool "fdd ready at boot" true (Ipsa.Device.fdd_ready device);
  check (Alcotest.list (Alcotest.pair int Alcotest.string)) "no gaps" []
    (Ipsa.Device.fdd_report device);
  check bool "boot compiled at least once" true (Ipsa.Device.fdd_builds device >= 1);
  check bool "boot built nodes" true (Ipsa.Device.fdd_node_count device > 0);
  let nodes0 = Ipsa.Device.fdd_node_count device in
  let splices0 = Ipsa.Device.fdd_splices device in
  ignore (Harness.Cases.apply_case session Harness.Paper.C1);
  check bool "fdd ready after patch" true (Ipsa.Device.fdd_ready device);
  check bool "patch respliced" true (Ipsa.Device.fdd_splices device > splices0);
  check bool "splice reported its node count" true
    (Ipsa.Device.fdd_splice_nodes device > 0);
  check bool "patched diagram is live" true (Ipsa.Device.fdd_node_count device > 0);
  (* the resplice rebuilt the touched slots, not a disjoint diagram *)
  check bool "node count moved with the patch" true
    (Ipsa.Device.fdd_node_count device <> 0 && nodes0 > 0)

(* --- steady-state allocation --------------------------------------------- *)

(* Mirror of the flat-path allocation gate: after warmup, the diagram
   walk must stay under two bytes per packet (the CI perf gate bound). *)
let test_zero_alloc () =
  let _, device = Harness.Cases.boot_base () in
  check bool "fdd ready" true (Ipsa.Device.fdd_ready device);
  let bytes =
    Net.Packet.contents (Net.Flowgen.ipv4_udp Usecases.Base_l23.routed_v4_flow)
  in
  for _ = 1 to 512 do
    ignore (Ipsa.Device.inject_fdd device ~in_port:0 bytes)
  done;
  (* Flush boot-time garbage: the allocation counter only advances at
     minor collections, so anything still in the young heap would be
     charged to whichever window the next collection lands in. *)
  Gc.full_major ();
  let n = 4096 in
  let before = Gc.allocated_bytes () in
  for _ = 1 to n do
    ignore (Ipsa.Device.inject_fdd device ~in_port:0 bytes)
  done;
  let per_pkt = (Gc.allocated_bytes () -. before) /. float_of_int n in
  check bool
    (Printf.sprintf "%.4f bytes allocated per packet" per_pkt)
    true (per_pkt < 2.0);
  (* the walk still forwards: same port and wire bytes as the interpreter *)
  let _, dev_i = Harness.Cases.boot_base () in
  let port_i, _, bytes_i, _ = Diffkit.observe dev_i bytes ~in_port:0 in
  let port_d = Ipsa.Device.inject_fdd device ~in_port:0 bytes in
  check (Alcotest.option int) "port matches interpreter" port_i
    (if port_d >= 0 then Some port_d else None);
  check Alcotest.string "wire bytes match interpreter" bytes_i
    (Ipsa.Device.fdd_contents device)

(* --- golden renderings ---------------------------------------------------- *)

(* [Fdd.pp] renumbers nodes in DFS discovery order, so the rendering is a
   stable artifact; each pipeline state is pinned against a committed
   golden file. Regenerate with
     FDD_GOLDEN_WRITE=$PWD/test/golden dune runtest *)
let golden_root = "golden"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let golden_check name actual () =
  let actual = actual () in
  match Sys.getenv_opt "FDD_GOLDEN_WRITE" with
  | Some dir ->
    let oc = open_out_bin (Filename.concat dir ("fdd_" ^ name ^ ".golden")) in
    output_string oc actual;
    close_out oc
  | None ->
    let path = Filename.concat golden_root ("fdd_" ^ name ^ ".golden") in
    if not (Sys.file_exists path) then
      Alcotest.failf "missing golden file %s (set FDD_GOLDEN_WRITE to create)" path;
    check Alcotest.string (name ^ ": fdd rendering matches golden") (read_file path)
      actual

(* The four harness pipeline states, populated and patched like the
   equivalence suites see them. *)
let golden_case name case () =
  let _, device = Diffkit.boot case in
  Ipsa.Device.refdd device;
  check bool (name ^ ": ready") true (Ipsa.Device.fdd_ready device);
  Ipsa.Fdd.pp device.Ipsa.Device.fdd

(* Plus the split-pipeline example straight from disk, unpopulated. *)
let golden_base_split () =
  let src = read_file (Filename.concat ".." "examples/rp4/base_split.rp4") in
  let pool = Ipsa.Device.default_pool () in
  let c =
    match Rp4bc.Compile.compile_full ~pool (Rp4.Parser.parse_string src) with
    | Ok c -> c
    | Error errs -> Alcotest.failf "base_split: %s" (String.concat "; " errs)
  in
  let device = Ipsa.Device.create ~ntsps:8 () in
  (match Ipsa.Device.apply_patch device c.Rp4bc.Compile.patch with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "base_split apply: %s" e);
  Ipsa.Device.refdd device;
  Ipsa.Fdd.pp device.Ipsa.Device.fdd

let golden_tests =
  List.map
    (fun (name, case) ->
      Alcotest.test_case name `Quick
        (golden_check name (golden_case name case)))
    Diffkit.cases
  @ [ Alcotest.test_case "base_split" `Quick
        (golden_check "base_split" golden_base_split) ]

(* The seeded-defect corpus stops at the verifier with its documented
   error codes: no FDD is ever compiled for a rejected program. *)
let bad_expected =
  [
    ("dead_table.rp4", [ "RP4E030" ]);
    ("width_overflow.rp4", [ "RP4E031" ]);
    ("invalid_header_read.rp4", [ "RP4E033" ]);
    ("conflicting_merge.rp4", [ "RP4E011"; "RP4E032" ]);
  ]

let test_bad_corpus_rejected (file, expected) () =
  let src = read_file (Filename.concat ".." ("examples/rp4/bad/" ^ file)) in
  match Analysis.Check.check_program (Rp4.Parser.parse_string src) with
  | Error errs -> Alcotest.failf "%s did not parse: %s" file (String.concat "; " errs)
  | Ok (_, diags) ->
    let got =
      List.sort compare
        (List.map (fun d -> d.Analysis.Diag.code) (Analysis.Diag.errors diags))
    in
    check (Alcotest.list Alcotest.string)
      (file ^ ": rejected with its documented codes")
      (List.sort compare expected) got

let bad_tests =
  List.map
    (fun ((file, _) as case) ->
      Alcotest.test_case file `Quick (test_bad_corpus_rejected case))
    bad_expected

let () =
  Alcotest.run "fdd"
    [
      ("equivalence", equivalence_tests);
      ( "incremental",
        [
          Alcotest.test_case "patch sequence" `Quick test_patch_splice_equals_rebuild;
          Diffkit.to_alcotest table_churn_prop;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "telemetry" `Quick test_telemetry;
          Alcotest.test_case "zero allocation" `Quick test_zero_alloc;
        ] );
      ("golden", golden_tests @ bad_tests);
    ]
