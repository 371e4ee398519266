(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section and times the real software code paths with
   Bechamel.

   Usage:
     dune exec bench/main.exe                 run everything
     dune exec bench/main.exe -- table1 fig6  run selected experiments
     dune exec bench/main.exe -- micro        only the Bechamel suite
*)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the software compile/load paths behind    *)
(* Table 1's bmv2-vs-ipbm comparison, plus the hot packet path          *)
(* ------------------------------------------------------------------ *)

let bench_full_p4_flow c =
  Test.make
    ~name:(Printf.sprintf "P4-full-flow/%s" (Harness.Paper.case_name c))
    (Staged.stage (fun () ->
         let p4 = P4lite.Parser.parse_string (Harness.Cases.p4_source_of c) in
         let rp4_prog = Rp4fc.Translate.translate p4 in
         let pool = Ipsa.Device.default_pool () in
         match Rp4bc.Compile.compile_full ~pool rp4_prog with
         | Ok _ -> ()
         | Error errs -> failwith (String.concat "; " errs)))

(* The incremental t_C path: snippet parsing + rp4bc incremental compile
   against a pre-booted base design. [insert_function] is pure with
   respect to the base design (it returns a new one), so the same booted
   state serves every run; patch application is measured separately by the
   table1 experiment. *)
let base_state =
  lazy
    (let session, device = Harness.Cases.boot_base () in
     (Controller.Session.design session, Ipsa.Device.pool device))

let snippet_of = function
  | Harness.Paper.C1 -> (Usecases.Ecmp.source, "ecmp")
  | Harness.Paper.C2 -> (Usecases.Srv6.source, "srv6")
  | Harness.Paper.C3 -> (Usecases.Flowprobe.source, "flow_probe")

let cmds_of script =
  Controller.Command.parse_script script
  |> List.filter_map (function
       | Controller.Command.Add_link (a, b) -> Some (Rp4bc.Compile.Add_link (a, b))
       | Controller.Command.Del_link (a, b) -> Some (Rp4bc.Compile.Del_link (a, b))
       | Controller.Command.Link_header { pre; next; tag } ->
         Some (Rp4bc.Compile.Link_hdr (pre, tag, next))
       | _ -> None)

let bench_incremental_flow c =
  Test.make
    ~name:(Printf.sprintf "rP4-incremental-tC/%s" (Harness.Paper.case_name c))
    (Staged.stage (fun () ->
         let design, pool = Lazy.force base_state in
         let src, func_name = snippet_of c in
         let snippet = Rp4.Parser.parse_string src in
         let cmds = cmds_of (Harness.Cases.script_of c) in
         match
           Rp4bc.Compile.insert_function design ~snippet ~func_name ~cmds
             ~algo:Rp4bc.Layout.Dp ~pool
         with
         | Ok _ -> ()
         | Error errs -> failwith (String.concat "; " errs)))

let bench_base_compile =
  Test.make ~name:"rp4bc-full/base-design"
    (Staged.stage (fun () ->
         let prog = Rp4.Parser.parse_string Usecases.Base_l23.source in
         let pool = Ipsa.Device.default_pool () in
         match Rp4bc.Compile.compile_full ~pool prog with
         | Ok _ -> ()
         | Error errs -> failwith (String.concat "; " errs)))

let bench_parse =
  Test.make ~name:"rp4-parser/base-design"
    (Staged.stage (fun () -> ignore (Rp4.Parser.parse_string Usecases.Base_l23.source)))

(* Pre-render the wire bytes once so the staged function times the device
   path (parse + match + execute), not checksum/concat packet building. *)
let routed_v4_bytes =
  lazy (Net.Packet.contents (Net.Flowgen.ipv4_udp Usecases.Base_l23.routed_v4_flow))

(* packet-forward: the booted base design driven through [inject], the
   reference interpreter — the baseline the compiled paths are measured
   against. *)
let bench_packet_path =
  let session_device = lazy (Harness.Cases.boot_base ()) in
  Test.make ~name:"ipbm/packet-forward"
    (Staged.stage (fun () ->
         let _, device = Lazy.force session_device in
         let pkt = Net.Packet.create ~in_port:0 (Lazy.force routed_v4_bytes) in
         ignore (Ipsa.Device.inject device pkt)))

(* The telemetry disabled-cost contract: [boot_base ()] runs with the
   no-op sink (every instrument update is one dead branch), so
   packet-forward vs packet-forward+telemetry bounds what a live
   registry costs on the interpreter. *)
let bench_packet_path_telemetry =
  let session_device =
    lazy (Harness.Cases.boot_base ~telemetry:(Telemetry.create ()) ())
  in
  Test.make ~name:"ipbm/packet-forward+telemetry"
    (Staged.stage (fun () ->
         let _, device = Lazy.force session_device in
         let pkt = Net.Packet.create ~in_port:0 (Lazy.force routed_v4_bytes) in
         ignore (Ipsa.Device.inject device pkt)))

(* packet-forward-flat: the same wire bytes through the batched
   zero-allocation path — no [Packet.t], no context, no per-packet heap
   traffic at all. *)
let flat_device =
  lazy
    (let _, device = Harness.Cases.boot_base () in
     if not (Ipsa.Device.flat_ready device) then
       failwith "bench: base design did not compile into the flat subset";
     device)

let bench_packet_path_flat =
  Test.make ~name:"ipbm/packet-forward-flat"
    (Staged.stage (fun () ->
         let device = Lazy.force flat_device in
         ignore
           (Ipsa.Device.inject_flat device ~in_port:0 (Lazy.force routed_v4_bytes))))

let packet_path_tests =
  [ bench_packet_path; bench_packet_path_flat; bench_packet_path_telemetry ]

(* Fleet rollout pair: one full rolling rollout (boot, waves, traffic,
   drain) on a two-node line, IPSA in-situ patches vs PISA monolithic
   reloads. Kept tiny so the CI smoke can afford whole-scenario runs. *)
let fabric_bench_scenario =
  lazy
    {
      Fabric.Fleet.default_scenario with
      Fabric.Fleet.sc_topo = Fabric.Topo.line ~n:2 ();
      sc_packets = 16;
    }

let bench_fabric_rollout arch name =
  Test.make ~name
    (Staged.stage (fun () ->
         ignore
           (Fabric.Fleet.run_scenario ~arch (Lazy.force fabric_bench_scenario))))

let fabric_tests =
  [
    bench_fabric_rollout Fabric.Sim.Ipsa "fabric/rollout-ipsa";
    bench_fabric_rollout Fabric.Sim.Pisa "fabric/rollout-pisa";
  ]

let default_micro_tests () =
  [ bench_parse; bench_base_compile ]
  @ packet_path_tests
  @ List.map bench_full_p4_flow Harness.Paper.cases
  @ List.map bench_incremental_flow Harness.Paper.cases

(* Returns [(name, ns_per_run estimate)] so callers can post-process
   (micro-smoke derives the compiled-vs-interpreted speedup artifact). *)
let run_micro ?(limit = 200) ?(quota = 0.5) ?tests () =
  print_endline "\n=== Bechamel micro-benchmarks (software code paths) ===";
  let tests = match tests with Some ts -> ts | None -> default_micro_tests () in
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) () in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results =
    List.concat_map
      (fun test ->
        let raw = Benchmark.all cfg instances test in
        let analyzed = Analyze.all ols Instance.monotonic_clock raw in
        Hashtbl.fold
          (fun name est acc ->
            let ns =
              match Analyze.OLS.estimates est with Some (e :: _) -> Some e | _ -> None
            in
            (name, ns) :: acc)
          analyzed []
        |> List.sort compare)
      tests
  in
  let rows =
    List.map
      (fun (name, ns) ->
        let time =
          match ns with
          | Some e -> Printf.sprintf "%12.0f ns/run  (%.3f ms)" e (e /. 1e6)
          | None -> "n/a"
        in
        [ name; time ])
      results
  in
  Prelude.Texttab.print ~header:[ "benchmark"; "estimated time" ] rows;
  results

(* Bytes allocated per packet on each path, measured with the GC's own
   allocation counter (Bechamel's monotonic clock says nothing about
   allocation): warm up until buffers and lazy caches are stable, then
   average over a fixed packet count. *)
let measure_allocs ?(warmup = 512) ?(runs = 4096) f =
  for _ = 1 to warmup do
    f ()
  done;
  (* Flush pending young-heap garbage: the counter only advances at minor
     collections, so boot/warmup allocations would otherwise be charged
     to whichever window the next collection happens to land in. *)
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  for _ = 1 to runs do
    f ()
  done;
  (Gc.allocated_bytes () -. before) /. float_of_int runs

let alloc_profiles () =
  let bytes = Lazy.force routed_v4_bytes in
  let _, dev_i = Harness.Cases.boot_base () in
  let dev_f = Lazy.force flat_device in
  [
    ( "interp",
      measure_allocs (fun () ->
          ignore (Ipsa.Device.inject dev_i (Net.Packet.create ~in_port:0 bytes))) );
    ( "flat",
      measure_allocs (fun () -> ignore (Ipsa.Device.inject_flat dev_f ~in_port:0 bytes))
    );
  ]

(* ------------------------------------------------------------------ *)
(* Residency sweep: the Synapse-style virtualization cost curve.       *)
(* ------------------------------------------------------------------ *)

(* Working set: the base population plus [sweep_hosts] exact host routes,
   driven round-robin so every flow is periodically the coldest tier
   entry. At 100% residency the hot tier covers the whole set — the pure
   tier-bookkeeping overhead vs the unvirtualized flat path — while at
   10% it thrashes and the escalation penalty dominates. *)
let sweep_hosts = 48

let sweep_flows =
  lazy
    (Array.init sweep_hosts (fun i ->
         Net.Packet.contents
           (Net.Flowgen.ipv4_udp
              (Net.Flowgen.make_flow
                 ~dst_mac:(Net.Addr.Mac.of_string_exn Usecases.Base_l23.router_mac)
                 ~dst_ip4:
                   (Net.Addr.Ipv4.of_string_exn
                      (Printf.sprintf "10.1.0.%d" (10 + i)))
                 ()))))

let sweep_population =
  String.concat "\n"
    (List.init sweep_hosts (fun i ->
         Printf.sprintf "table_add ipv4_host set_nexthop 10 10.1.0.%d => %d"
           (10 + i)
           (1 + (i mod 3))))

(* Skewed arrival order: three of every four packets target the first 8
   hosts, the rest cycle the cold tail. A plain round-robin would be
   LRU's pathological case (0% hits at any partial residency); the skew
   makes hit rate degrade gradually as capacity shrinks, like the
   flow-popularity curves the virtualization papers assume. *)
let sweep_schedule =
  lazy
    (let flows = Lazy.force sweep_flows in
     Array.init 256 (fun i ->
         if i land 3 <> 3 then flows.(i land 7)
         else flows.(8 + ((i lsr 2) mod (sweep_hosts - 8)))))

(* One sweep step: a freshly booted flat-path device with the widened
   population, the host-route table virtualized at [virt]% of its entry
   count (skipped for the unvirtualized baseline), warmed to steady
   state, then timed over best-of-three windows. Only [ipv4_host] is
   tiered: it is the table whose resolution working set tracks the flow
   mix (the Synapse overflow case), so the residency knob maps directly
   onto hit rate. Tiering an LPM table's single covering route would
   instead measure resolution-key thrash at every residency. *)
let sweep_table = "ipv4_host"

let sweep_step ?virt ?(rounds = 400) () =
  let flows = Lazy.force sweep_schedule in
  let session, device = Harness.Cases.boot_base () in
  (match Controller.Session.run_script session sweep_population with
  | Ok _ -> ()
  | Error e -> failwith ("virt sweep population: " ^ e));
  if not (Ipsa.Device.flat_ready device) then
    failwith "virt sweep: base design did not compile into the flat subset";
  (match virt with
  | None -> ()
  | Some pct -> (
    match Ipsa.Device.find_table device sweep_table with
    | None -> failwith ("virt sweep: no table " ^ sweep_table)
    | Some tb ->
      Table.virtualize tb ~capacity:(max 1 (Table.entry_count tb * pct / 100))));
  let drive () =
    Array.iter
      (fun bytes -> ignore (Ipsa.Device.inject_flat device ~in_port:0 bytes))
      flows
  in
  for _ = 1 to 32 do
    drive ()
  done;
  let window () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to rounds do
      drive ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (rounds * Array.length flows)
  in
  let ns = min (window ()) (min (window ()) (window ())) in
  let hits, misses =
    List.fold_left
      (fun (h, m) (_, _, ts) -> (h + ts.Table.ts_hits, m + ts.Table.ts_misses))
      (0, 0)
      (Ipsa.Device.virt_tables device)
  in
  let lookups = hits + misses in
  let hit_rate =
    if lookups = 0 then 1.0 else float_of_int hits /. float_of_int lookups
  in
  (ns, hit_rate, misses)

let virt_sweep_points = [ 100; 75; 50; 25; 10 ]

(* The bench pair: the unvirtualized flat baseline and the residency
   curve, measured with the same loop over the same flow mix. Returns
   the baseline ns/pkt and per-point rows. *)
let virt_sweep () =
  let base_ns, _, _ = sweep_step () in
  let rows =
    List.map
      (fun pct ->
        let ns, hit_rate, misses = sweep_step ~virt:pct () in
        (pct, ns, hit_rate, misses))
      virt_sweep_points
  in
  (base_ns, rows)

(* The artifact the CI smoke publishes: the interpreted and flat packet
   paths, with the flat path's speedup over the interpreter; per-path
   detail lives under ["paths"]. *)
let write_bench_link results =
  let module J = Prelude.Json in
  let find n = Option.join (List.assoc_opt n results) in
  match (find "ipbm/packet-forward", find "ipbm/packet-forward-flat") with
  | Some interp, Some flat when interp > 0.0 && flat > 0.0 ->
    let allocs = alloc_profiles () in
    let sweep_base_ns, sweep_rows = virt_sweep () in
    let path_obj name ns =
      ( name,
        J.Obj
          [
            ("ns_per_packet", J.Float ns);
            ("pkt_per_sec", J.Float (1e9 /. ns));
            ( "allocs_per_packet",
              J.Float (try List.assoc name allocs with Not_found -> nan) );
          ] )
    in
    let j =
      J.Obj
        [
          ("interp_ns_per_packet", J.Float interp);
          ("flat_ns_per_packet", J.Float flat);
          ("flat_speedup_vs_interp", J.Float (interp /. flat));
          ("paths", J.Obj [ path_obj "interp" interp; path_obj "flat" flat ]);
          ( "virt_sweep",
            J.Obj
              [
                ("flat_ns_per_packet", J.Float sweep_base_ns);
                ( "points",
                  J.List
                    (List.map
                       (fun (pct, ns, hit_rate, misses) ->
                         J.Obj
                           [
                             ("residency_pct", J.Int pct);
                             ("ns_per_packet", J.Float ns);
                             ("tier_hit_rate", J.Float hit_rate);
                             ("tier_misses", J.Int misses);
                           ])
                       sweep_rows) );
              ] );
        ]
    in
    let oc = open_out "BENCH_link.json" in
    output_string oc (J.to_string_pretty j);
    output_string oc "\n";
    close_out oc;
    Printf.printf
      "BENCH_link.json: flat %.2fx vs interp (%.0f -> %.0f ns, %.2f Mpkt/s, %.3f B alloc/pkt)\n"
      (interp /. flat) interp flat (1e3 /. flat)
      (try List.assoc "flat" allocs with Not_found -> nan);
    Printf.printf "BENCH_link.json: virt sweep baseline %.0f ns/pkt (flat, unvirtualized)\n"
      sweep_base_ns;
    List.iter
      (fun (pct, ns, hit_rate, _) ->
        Printf.printf
          "BENCH_link.json: virt %3d%% resident: %.0f ns/pkt (%.2fx baseline), hit rate %.3f\n"
          pct ns (ns /. sweep_base_ns) hit_rate)
      sweep_rows
  | _ -> prerr_endline "BENCH_link.json not written: missing estimates"

(* CI perf gate over a freshly generated BENCH_link.json: the flat path
   must stay allocation-free (tiny tolerance for GC-counter noise) and
   strictly faster than the interpreter. *)
let perf_gate () =
  let module J = Prelude.Json in
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let j = J.of_string (read_file "BENCH_link.json") in
  let field p f =
    J.member_exn "paths" j |> J.member_exn p |> J.member_exn f |> J.to_float
  in
  let interp_ns = field "interp" "ns_per_packet" in
  let flat_ns = field "flat" "ns_per_packet" in
  let flat_allocs = field "flat" "allocs_per_packet" in
  Printf.printf
    "perf gate: flat %.0f ns/pkt (%.2fx vs interp %.0f ns), %.3f bytes alloc/pkt, %.2f Mpkt/s\n"
    flat_ns (interp_ns /. flat_ns) interp_ns flat_allocs (1e3 /. flat_ns);
  let failed = ref false in
  if not (flat_allocs <= 2.0) then begin
    Printf.eprintf "perf gate FAIL: flat path allocates %.3f bytes/packet (limit 2.0)\n"
      flat_allocs;
    failed := true
  end;
  if not (flat_ns < interp_ns) then begin
    Printf.eprintf "perf gate FAIL: flat path (%.0f ns) not faster than interp (%.0f ns)\n"
      flat_ns interp_ns;
    failed := true
  end;
  (* The virtualization tax: a fully-resident hot tier must stay within
     10% of the unvirtualized flat path measured by the same loop. *)
  (match J.member "virt_sweep" j with
  | None ->
    Printf.eprintf
      "perf gate FAIL: BENCH_link.json has no virt_sweep (regenerate with micro-smoke)\n";
    failed := true
  | Some sweep ->
    let base_ns = J.member_exn "flat_ns_per_packet" sweep |> J.to_float in
    let resident =
      List.find_opt
        (fun r -> J.member_exn "residency_pct" r |> J.to_int = 100)
        (J.member_exn "points" sweep |> J.to_list)
    in
    (match resident with
    | None ->
      Printf.eprintf "perf gate FAIL: virt_sweep has no 100%%-resident point\n";
      failed := true
    | Some r ->
      let ns = J.member_exn "ns_per_packet" r |> J.to_float in
      Printf.printf
        "perf gate: engine 100%% resident %.0f ns/pkt vs unvirtualized flat %.0f ns (%.2fx)\n"
        ns base_ns (ns /. base_ns);
      if not (ns <= base_ns *. 1.10) then begin
        Printf.eprintf
          "perf gate FAIL: fully-resident tier %.0f ns/pkt exceeds flat %.0f ns by more than 10%%\n"
          ns base_ns;
        failed := true
      end));
  if !failed then exit 1;
  print_endline "perf gate OK"

(* The fabric artifact: the leaf-spine-4 rolling C2 rollout, IPSA fleet
   vs PISA fleet, with the bench pair's ns/rollout estimates when the
   pair ran in the same invocation. The headline numbers are the
   in-rollout loss counts — zero for IPSA (arrivals wait in the CM
   buffer), non-zero for PISA (reload windows drop). *)
let write_bench_fabric results =
  let module J = Prelude.Json in
  let find n = Option.join (List.assoc_opt n results) in
  let arch_obj arch bench_name =
    let p = Fabric.Fleet.run_scenario ~arch Fabric.Fleet.default_scenario in
    let s = p.Fabric.Fleet.p_summary in
    ( p,
      J.Obj
        ([
           ("injected", J.Int s.Fabric.Sim.s_injected);
           ("delivered", J.Int s.Fabric.Sim.s_delivered);
           ("dropped", J.Int s.Fabric.Sim.s_dropped);
           ("in_rollout_injected", J.Int p.Fabric.Fleet.p_in_rollout);
           ("in_rollout_lost", J.Int p.Fabric.Fleet.p_in_rollout_lost);
           ("in_rollout_delayed", J.Int p.Fabric.Fleet.p_in_rollout_delayed);
           ( "rollout_ticks",
             J.Int
               (p.Fabric.Fleet.p_rollout.Fabric.Fleet.r_end
               - p.Fabric.Fleet.p_rollout.Fabric.Fleet.r_start) );
         ]
        @ match find bench_name with
          | Some ns -> [ ("bench_ns_per_rollout", J.Float ns) ]
          | None -> []) )
  in
  let ipsa, ipsa_j = arch_obj Fabric.Sim.Ipsa "fabric/rollout-ipsa" in
  let pisa, pisa_j = arch_obj Fabric.Sim.Pisa "fabric/rollout-pisa" in
  let j =
    J.Obj
      [
        ("topology", J.String "leaf-spine-4");
        ("update", J.String ipsa.Fabric.Fleet.p_update);
        ("ipsa", ipsa_j);
        ("pisa", pisa_j);
      ]
  in
  let oc = open_out "BENCH_fabric.json" in
  output_string oc (J.to_string_pretty j);
  output_string oc "\n";
  close_out oc;
  Printf.printf
    "BENCH_fabric.json: in-rollout loss ipsa %d/%d vs pisa %d/%d (delayed %d vs %d)\n"
    ipsa.Fabric.Fleet.p_in_rollout_lost ipsa.Fabric.Fleet.p_in_rollout
    pisa.Fabric.Fleet.p_in_rollout_lost pisa.Fabric.Fleet.p_in_rollout
    ipsa.Fabric.Fleet.p_in_rollout_delayed pisa.Fabric.Fleet.p_in_rollout_delayed

(* ------------------------------------------------------------------ *)
(* Internet-scale FIB: load and lookup rates at 1k / 100k / 1M routes  *)
(* ------------------------------------------------------------------ *)

(* Per-lookup cost over a deterministic key mix: every other key is a
   real route prefix (guaranteed hit at some depth), the rest uniform
   random (mostly defaults/misses) — the pattern an edge router's
   traffic actually presents to its FIB. *)
let time_lookups trie keys ~lookups =
  let n = Array.length keys in
  for i = 0 to min 4095 (lookups - 1) do
    ignore (Sys.opaque_identity (Net.Lpm.lookup trie keys.(i mod n)))
  done;
  let t0 = Unix.gettimeofday () in
  for i = 0 to lookups - 1 do
    ignore (Sys.opaque_identity (Net.Lpm.lookup trie keys.(i mod n)))
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int lookups

let fib_keys ~rng ~key_bytes routes =
  let routes = Array.of_list routes in
  Array.init 65536 (fun i ->
      if i land 1 = 0 && Array.length routes > 0 then
        routes.(Prelude.Rng.int rng (Array.length routes)).Fabric.Fibgen.r_prefix
      else Prelude.Rng.bytes rng key_bytes)

let fib_point ~lookups n_v4 =
  let module J = Prelude.Json in
  let n_v6 = max 1 (n_v4 / 4) in
  let fib = Fabric.Fibgen.build ~seed:7 ~n_v4 ~n_v6 () in
  let v4 = fib.Fabric.Fibgen.fib_v4 and v6 = fib.Fabric.Fibgen.fib_v6 in
  let requested = v4.Fabric.Fibgen.lt_requested + v6.Fabric.Fibgen.lt_requested in
  let load_ns = v4.Fabric.Fibgen.lt_load_ns +. v6.Fabric.Fibgen.lt_load_ns in
  let load_rate = float_of_int requested /. (load_ns /. 1e9) in
  let trie_of l =
    match Table.lpm_trie l.Fabric.Fibgen.lt_table with
    | Some trie -> trie
    | None -> failwith "fib bench: route table lost its LPM trie"
  in
  let rng = Prelude.Rng.create 11 in
  let ns_v4 =
    time_lookups (trie_of v4)
      (fib_keys ~rng ~key_bytes:4 fib.Fabric.Fibgen.fib_routes_v4)
      ~lookups
  in
  let ns_v6 =
    time_lookups (trie_of v6)
      (fib_keys ~rng ~key_bytes:16 fib.Fabric.Fibgen.fib_routes_v6)
      ~lookups
  in
  Printf.printf
    "fib %8d v4 + %7d v6: load %.0f routes/s; lookup v4 %.0f ns (%.2f M/s), v6 %.0f ns (%.2f M/s)%s\n%!"
    n_v4 n_v6 load_rate ns_v4 (1e3 /. ns_v4) ns_v6 (1e3 /. ns_v6)
    (if Fabric.Fibgen.lt_virtualized v4 then " [virtualized]" else "");
  J.Obj
    [
      ("v4_routes", J.Int n_v4);
      ("v6_routes", J.Int n_v6);
      ("load_routes_per_sec", J.Float load_rate);
      ("load_ns_total", J.Float load_ns);
      ("lookup_ns_v4", J.Float ns_v4);
      ("lookup_per_sec_v4", J.Float (1e9 /. ns_v4));
      ("lookup_ns_v6", J.Float ns_v6);
      ("lookup_per_sec_v6", J.Float (1e9 /. ns_v6));
      ("granted_v4", J.Int v4.Fabric.Fibgen.lt_granted);
      ("granted_v6", J.Int v6.Fabric.Fibgen.lt_granted);
      ("virtualized_v4", J.Bool (Fabric.Fibgen.lt_virtualized v4));
      ("virtualized_v6", J.Bool (Fabric.Fibgen.lt_virtualized v6));
    ]

(* The 1M-route point must not fall off a cliff relative to 100k: a
   path-compressed trie's lookup grows with prefix-length depth, not
   table size, so 10x the routes has to stay within a fixed budget. The
   budget absorbs the last-level-cache cliff (the 25k-route v6 trie is
   cache-resident, the 250k one is not — measured ~4.4x) while still
   failing a linear-scan regression (~10x and climbing). *)
let fib_budget_factor = 6.0

let write_bench_fib () =
  let module J = Prelude.Json in
  let points = List.map (fib_point ~lookups:200_000) [ 1_000; 100_000; 1_000_000 ] in
  let j =
    J.Obj
      [
        ("sizes", J.List (List.map (fun p -> J.member_exn "v4_routes" p) points));
        ("lookups_per_point", J.Int 200_000);
        ("budget_factor", J.Float fib_budget_factor);
        ("points", J.List points);
      ]
  in
  let oc = open_out "BENCH_fib.json" in
  output_string oc (J.to_string_pretty j);
  output_string oc "\n";
  close_out oc

let fib_gate () =
  let module J = Prelude.Json in
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let j = J.of_string (read_file "BENCH_fib.json") in
  let points = J.member_exn "points" j |> J.to_list in
  let point n =
    match
      List.find_opt (fun p -> J.member_exn "v4_routes" p |> J.to_int = n) points
    with
    | Some p -> p
    | None -> failwith (Printf.sprintf "BENCH_fib.json lacks the %d-route point" n)
  in
  let p100k = point 100_000 and p1m = point 1_000_000 in
  let fl name p = J.member_exn name p |> J.to_float in
  let failed = ref false in
  let gate fam =
    let f = "lookup_ns_" ^ fam in
    let small = fl f p100k and big = fl f p1m in
    Printf.printf "fib gate: %s lookup %.0f ns at 100k -> %.0f ns at 1M (%.2fx, budget %.1fx)\n"
      fam small big (big /. small) fib_budget_factor;
    if not (big <= small *. fib_budget_factor) then begin
      Printf.eprintf
        "fib gate FAIL: %s lookup at 1M routes (%.0f ns) blows the %.1fx budget over 100k (%.0f ns)\n"
        fam big fib_budget_factor small;
      failed := true
    end
  in
  gate "v4";
  gate "v6";
  (* And the pool story must hold: 1M requested, short-granted,
     virtualized — never silently resident beyond the pool. *)
  (match (J.member "virtualized_v4" p1m, J.member "granted_v4" p1m) with
  | Some (J.Bool true), Some (J.Int g) when g < 1_000_000 -> ()
  | _ ->
    Printf.eprintf "fib gate FAIL: 1M-route point is not short-granted + virtualized\n";
    failed := true);
  if !failed then exit 1;
  print_endline "fib gate OK"

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let all_experiments =
  [
    ("table1", fun () -> ignore (Harness.Experiments.table1 ()));
    ("throughput", Harness.Experiments.throughput);
    ("table2", Harness.Experiments.table2);
    ("table3", Harness.Experiments.table3);
    ("fig6", Harness.Experiments.fig6);
    ("fig4", Harness.Experiments.fig4);
    ("ablation-layout", Harness.Experiments.ablation_layout);
    ("ablation-throughput", Harness.Experiments.ablation_throughput);
    ("ablation-crossbar", Harness.Experiments.ablation_crossbar);
    ("micro", fun () -> ignore (run_micro ~tests:(default_micro_tests () @ fabric_tests) ()));
    ( "fabric-rollout",
      fun () ->
        write_bench_fabric (run_micro ~limit:10 ~quota:0.05 ~tests:fabric_tests ()) );
    (* CI smoke: the packet paths plus the fleet-rollout pair with a tiny
       iteration budget; emits the BENCH_link.json compiled-vs-
       interpreted artifact and the BENCH_fabric.json rollout-loss one. *)
    ( "micro-smoke",
      fun () ->
        let results =
          run_micro ~limit:25 ~quota:0.05 ~tests:(packet_path_tests @ fabric_tests) ()
        in
        write_bench_link results;
        write_bench_fabric results );
    ("perf-gate", perf_gate);
    (* Internet-scale FIB artifact + its lookup-budget gate. *)
    ("fib", write_bench_fib);
    ("fib-gate", fib_gate);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl |> List.filter (( <> ) "--") in
  let selected = match args with [] -> List.map fst all_experiments | names -> names in
  List.iter
    (fun name ->
      match List.assoc_opt name all_experiments with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat ", " (List.map fst all_experiments));
        exit 1)
    selected;
  print_endline "\nAll requested experiments completed."
