(* Tests for the IPSA behavioral model: templates (JSON round trip), the
   distributed parse engine, TSP execution, the elastic pipeline and its
   selector invariant, the traffic manager, the device's CCM patch
   application including failure paths, per-device packet ids, and the
   flat plan every patch recompiles. *)

module B = Net.Bits

let check = Alcotest.check

(* --- template JSON round trip ------------------------------------------------ *)

let compiled_base () =
  let prog = Rp4.Parser.parse_string Usecases.Base_l23.source in
  let pool = Ipsa.Device.default_pool () in
  match Rp4bc.Compile.compile_full ~pool prog with
  | Ok c -> c
  | Error errs -> Alcotest.failf "compile: %s" (String.concat "; " errs)

let test_template_json_roundtrip () =
  let c = compiled_base () in
  List.iter
    (fun (_, g) ->
      let tmpl = Rp4bc.Compile.template_of_group c.Rp4bc.Compile.design.Rp4bc.Design.env g in
      let tmpl' = Ipsa.Template.of_string (Ipsa.Template.to_string tmpl) in
      check Alcotest.bool
        (Printf.sprintf "template %s roundtrips" (Rp4bc.Group.key g))
        true (tmpl = tmpl'))
    (Rp4bc.Layout.assignment c.Rp4bc.Compile.design.Rp4bc.Design.layout)

let test_config_json_roundtrip () =
  let c = compiled_base () in
  let patch = c.Rp4bc.Compile.patch in
  let patch' = Ipsa.Config.of_string (Ipsa.Config.to_string patch) in
  check Alcotest.int "op count preserved" (List.length patch.Ipsa.Config.ops)
    (List.length patch'.Ipsa.Config.ops);
  check Alcotest.bool "ops equal" true (patch.Ipsa.Config.ops = patch'.Ipsa.Config.ops)

let test_template_byte_size_positive () =
  let c = compiled_base () in
  check Alcotest.bool "config volume sane" true
    (Ipsa.Config.byte_size c.Rp4bc.Compile.patch > 500)

(* --- parse engine ------------------------------------------------------------- *)

let registry_with_chain () =
  let r = Net.Hdrdef.create_registry () in
  let eth =
    Net.Hdrdef.make ~name:"eth"
      ~fields:
        [
          { Net.Hdrdef.f_name = "dst"; f_width = 48 };
          { Net.Hdrdef.f_name = "src"; f_width = 48 };
          { Net.Hdrdef.f_name = "etype"; f_width = 16 };
        ]
      ~sel_fields:[ "etype" ]
  in
  let v4 =
    Net.Hdrdef.make ~name:"v4"
      ~fields:
        [
          { Net.Hdrdef.f_name = "stuff"; f_width = 72 };
          { Net.Hdrdef.f_name = "proto"; f_width = 8 };
          { Net.Hdrdef.f_name = "rest"; f_width = 80 };
        ]
      ~sel_fields:[ "proto" ]
  in
  let udp =
    Net.Hdrdef.make ~name:"udp"
      ~fields:[ { Net.Hdrdef.f_name = "ports"; f_width = 32 } ]
      ~sel_fields:[]
  in
  Net.Hdrdef.add_def r eth;
  Net.Hdrdef.add_def r v4;
  Net.Hdrdef.add_def r udp;
  Net.Hdrdef.set_first r "eth";
  Net.Hdrdef.link r ~pre:"eth" ~tag:(B.of_int ~width:16 0x0800) ~next:"v4";
  Net.Hdrdef.link r ~pre:"v4" ~tag:(B.of_int ~width:8 17) ~next:"udp";
  r

let ctx_of_packet pkt = Ipsa.Context.create pkt

let test_parse_engine_chain () =
  let r = registry_with_chain () in
  let flow = Net.Flowgen.make_flow () in
  let pkt = Net.Flowgen.ipv4_udp flow in
  let ctx = ctx_of_packet pkt in
  (* asking for the deepest header parses the whole chain *)
  check Alcotest.bool "udp found" true (Ipsa.Parse_engine.ensure_parsed ctx r "udp");
  check Alcotest.bool "eth recorded" true (Net.Pmap.is_valid ctx.Ipsa.Context.pmap "eth");
  check Alcotest.bool "v4 recorded" true (Net.Pmap.is_valid ctx.Ipsa.Context.pmap "v4");
  (* offsets line up with the wire format *)
  (match Net.Pmap.find ctx.Ipsa.Context.pmap "v4" with
  | Some inst -> check Alcotest.int "v4 at byte 14" (14 * 8) inst.Net.Pmap.bit_off
  | None -> Alcotest.fail "v4 missing");
  (* re-requesting is free: parse_attempts unchanged *)
  let attempts = ctx.Ipsa.Context.parse_attempts in
  check Alcotest.bool "idempotent" true (Ipsa.Parse_engine.ensure_parsed ctx r "v4");
  check Alcotest.int "no re-parsing" attempts ctx.Ipsa.Context.parse_attempts

let test_parse_engine_off_path () =
  let r = registry_with_chain () in
  let flow = Net.Flowgen.make_flow () in
  let pkt = Net.Flowgen.l2 flow in
  (* ethertype 0x88B5: no chain to v4 *)
  let ctx = ctx_of_packet pkt in
  check Alcotest.bool "v4 not on path" false (Ipsa.Parse_engine.ensure_parsed ctx r "v4");
  check Alcotest.bool "eth still parsed" true (Net.Pmap.is_valid ctx.Ipsa.Context.pmap "eth")

let test_parse_engine_truncated_packet () =
  let r = registry_with_chain () in
  (* an ethernet header claiming IPv4 but with no bytes behind it *)
  let eth =
    Net.Proto.Eth.to_string
      { dst = Net.Addr.Mac.of_index 1; src = Net.Addr.Mac.of_index 2; ethertype = 0x0800 }
  in
  let ctx = ctx_of_packet (Net.Packet.create eth) in
  check Alcotest.bool "truncated chain stops" false
    (Ipsa.Parse_engine.ensure_parsed ctx r "v4")

let test_parse_engine_resume_from_deepest () =
  let r = registry_with_chain () in
  let pkt = Net.Flowgen.ipv4_udp (Net.Flowgen.make_flow ()) in
  let ctx = ctx_of_packet pkt in
  ignore (Ipsa.Parse_engine.ensure_parsed ctx r "eth");
  let after_eth = ctx.Ipsa.Context.parse_attempts in
  ignore (Ipsa.Parse_engine.ensure_parsed ctx r "udp");
  (* the second request must not have re-parsed eth *)
  check Alcotest.bool "incremental continuation" true
    (ctx.Ipsa.Context.parse_attempts - after_eth <= 2)

(* --- pipeline / selector -------------------------------------------------------- *)

let test_pipeline_selector_invariant () =
  let p = Ipsa.Pipeline.create ~ntsps:4 in
  (match Ipsa.Pipeline.set_role p 2 Ipsa.Pipeline.Egress with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Ipsa.Pipeline.set_role p 3 Ipsa.Pipeline.Ingress with
  | Error _ -> () (* ingress right of egress violates the selector *)
  | Ok () -> Alcotest.fail "selector violation accepted");
  (* the failed set must not corrupt state *)
  check Alcotest.bool "role rolled back" true
    (Ipsa.Pipeline.role p 3 = Ipsa.Pipeline.Bypass);
  (match Ipsa.Pipeline.set_role p 0 Ipsa.Pipeline.Ingress with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.int "active count" 2 (Ipsa.Pipeline.active_count p)

let test_pipeline_describe () =
  let p = Ipsa.Pipeline.create ~ntsps:2 in
  ignore (Ipsa.Pipeline.set_role p 0 Ipsa.Pipeline.Ingress);
  let s = Ipsa.Pipeline.describe p in
  check Alcotest.bool "describe mentions roles" true
    (String.length s > 0 && String.contains s 'I')

(* --- traffic manager -------------------------------------------------------------- *)

let test_tm_fifo_and_overflow () =
  let tm = Ipsa.Tm.create ~capacity:2 () in
  check Alcotest.bool "enq 1" true (Ipsa.Tm.enqueue tm 1);
  check Alcotest.bool "enq 2" true (Ipsa.Tm.enqueue tm 2);
  check Alcotest.bool "overflow dropped" false (Ipsa.Tm.enqueue tm 3);
  check (Alcotest.option Alcotest.int) "fifo order" (Some 1) (Ipsa.Tm.dequeue tm);
  let enq, dropped, hwm = Ipsa.Tm.stats tm in
  check Alcotest.int "enqueued" 2 enq;
  check Alcotest.int "dropped" 1 dropped;
  check Alcotest.int "high watermark" 2 hwm

let test_tm_drain () =
  let tm = Ipsa.Tm.create () in
  ignore (Ipsa.Tm.enqueue tm 1);
  ignore (Ipsa.Tm.enqueue tm 2);
  let seen = ref [] in
  let n = Ipsa.Tm.drain tm (fun x -> seen := x :: !seen) in
  check Alcotest.int "drained" 2 n;
  check (Alcotest.list Alcotest.int) "order" [ 1; 2 ] (List.rev !seen);
  check Alcotest.int "empty after" 0 (Ipsa.Tm.length tm)

(* --- device / CCM ------------------------------------------------------------------- *)

let booted_device () =
  let c = compiled_base () in
  let device = Ipsa.Device.create ~ntsps:8 () in
  (match Ipsa.Device.apply_patch device c.Rp4bc.Compile.patch with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "boot patch failed: %s" e);
  (device, c.Rp4bc.Compile.design)

(* The TM selector can sit at either extreme of the elastic pipeline:
   after the last TSP (all-ingress, the boot default) or before stage 0
   (all-egress). Both boundary positions must keep forwarding packets. *)

let test_tm_boundary_after_last_tsp () =
  let device, _ = booted_device () in
  let p = Ipsa.Device.pipeline device in
  check Alcotest.int "tm after last tsp" (Ipsa.Pipeline.ntsps p)
    (Ipsa.Pipeline.tm_position p);
  check Alcotest.int "no egress tsps" 0 (Ipsa.Pipeline.egress_count p);
  match Ipsa.Device.inject device (Net.Flowgen.ipv4_udp ~in_port:0 (Net.Flowgen.make_flow ())) with
  | Some _ -> ()
  | None -> Alcotest.fail "packet lost with TM at the right boundary"

let test_tm_boundary_at_stage_zero () =
  let device, _ = booted_device () in
  let p = Ipsa.Device.pipeline device in
  let n = Ipsa.Pipeline.ntsps p in
  let powered_before = Ipsa.Pipeline.powered_count p in
  (* flip right-to-left so every intermediate state keeps the egress
     suffix contiguous — left-to-right would violate the selector *)
  let ops = List.init n (fun i -> Ipsa.Config.Set_role (n - 1 - i, Ipsa.Pipeline.Egress)) in
  (match Ipsa.Device.apply_patch device { Ipsa.Config.ops } with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "all-egress patch rejected: %s" e);
  check Alcotest.int "tm at stage 0" 0 (Ipsa.Pipeline.tm_position p);
  check Alcotest.int "no ingress tsps" 0 (Ipsa.Pipeline.ingress_count p);
  check Alcotest.int "powered count unchanged" powered_before
    (Ipsa.Pipeline.powered_count p);
  match Ipsa.Device.inject device (Net.Flowgen.ipv4_udp ~in_port:0 (Net.Flowgen.make_flow ())) with
  | Some _ -> ()
  | None -> Alcotest.fail "packet lost with TM at the left boundary"

let test_device_boot_report () =
  let c = compiled_base () in
  let device = Ipsa.Device.create ~ntsps:8 () in
  match Ipsa.Device.apply_patch device c.Rp4bc.Compile.patch with
  | Error e -> Alcotest.fail e
  | Ok report ->
    check Alcotest.int "templates written" 7 report.Ipsa.Device.lr_templates;
    check Alcotest.int "tables created" 12 report.Ipsa.Device.lr_tables_created;
    check Alcotest.bool "crossbar wired" true (report.Ipsa.Device.lr_crossbar_changes > 0);
    check Alcotest.bool "bytes counted" true (report.Ipsa.Device.lr_bytes > 1000)

let test_device_bad_ops_rejected () =
  let device, _ = booted_device () in
  let bad tsp = { Ipsa.Config.ops = [ Ipsa.Config.Write_template (tsp, None) ] } in
  (match Ipsa.Device.apply_patch device (bad 99) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad TSP id accepted");
  (match
     Ipsa.Device.apply_patch device
       { Ipsa.Config.ops = [ Ipsa.Config.Free_table "no_such_table" ] }
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "freeing unknown table accepted");
  match
    Ipsa.Device.apply_patch device
      { Ipsa.Config.ops = [ Ipsa.Config.Set_first_header "nope" ] }
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown first header accepted"

let test_device_table_reachability () =
  let device, _ = booted_device () in
  (* port_map lives on TSP 0; it must be reachable there and not from 7 *)
  check Alcotest.bool "reachable from host TSP" true
    (Ipsa.Device.table_reachable device ~tsp:0 "port_map");
  check Alcotest.bool "not wired elsewhere" false
    (Ipsa.Device.table_reachable device ~tsp:7 "port_map")

let test_device_unreachable_table_is_miss () =
  (* disconnect a table from its TSP: lookups behave as misses, packets
     still flow (crossbar misconfiguration does not wedge the switch) *)
  let device, _ = booted_device () in
  (match
     Ipsa.Device.apply_patch device
       { Ipsa.Config.ops = [ Ipsa.Config.Disconnect_table (0, "port_map") ] }
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let pkt = Net.Flowgen.l2 ~in_port:5 Usecases.Base_l23.bridged_flow in
  match Ipsa.Device.inject device pkt with
  | Some (_, ctx) ->
    check Alcotest.int "ifindex never set" 0 (Net.Meta.get_int ctx.Ipsa.Context.meta "ifindex")
  | None -> Alcotest.fail "packet wedged"

let test_device_drop_semantics () =
  let device, _ = booted_device () in
  (* install a drop entry in port_map via the raw table API: tag 99 is not
     an executor case, so default (NoAction) runs — use drop metadata
     instead through a crafted action: simply check dropped counting via
     an unroutable packet is NOT dropped (goes to port 0) *)
  let stats_before = (Ipsa.Device.stats device).Ipsa.Device.forwarded in
  let pkt = Net.Flowgen.ipv4_udp ~in_port:0 (Net.Flowgen.make_flow ()) in
  (match Ipsa.Device.inject device pkt with
  | Some (port, _) -> check Alcotest.int "miss goes to port 0" 0 port
  | None -> Alcotest.fail "unexpected drop");
  check Alcotest.int "forwarded counted" (stats_before + 1)
    (Ipsa.Device.stats device).Ipsa.Device.forwarded

let test_device_buffering_during_update () =
  let device, _ = booted_device () in
  (* apply_patch drains and flushes; buffered packets must all come out *)
  let before = (Ipsa.Device.stats device).Ipsa.Device.injected in
  ignore (Ipsa.Device.inject device (Net.Flowgen.l2 Usecases.Base_l23.bridged_flow));
  (match Ipsa.Device.apply_patch device { Ipsa.Config.ops = [] } with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.int "nothing lost" (before + 1) (Ipsa.Device.stats device).Ipsa.Device.injected;
  check Alcotest.int "updates counted" 2 (Ipsa.Device.stats device).Ipsa.Device.updates_applied

let test_device_collect () =
  let device, _ = booted_device () in
  (* populate one dmac entry directly *)
  (match Ipsa.Device.find_table device "dmac" with
  | Some t ->
    Table.insert t
      ~matches:
        [
          Table.Key.M_exact (B.of_int ~width:16 0);
          Table.Key.M_exact (Net.Addr.Mac.to_bits (Net.Addr.Mac.of_index 7));
        ]
      ~action:"1"
      ~args:[ B.of_int ~width:16 9 ]
      ()
  | None -> Alcotest.fail "dmac missing");
  let flow = Net.Flowgen.make_flow ~dst_mac:(Net.Addr.Mac.of_index 7) () in
  ignore (Ipsa.Device.inject device (Net.Flowgen.l2 flow));
  let out = Ipsa.Device.collect device 9 in
  check Alcotest.int "collected on port 9" 1 (List.length out);
  check Alcotest.int "queue cleared" 0 (List.length (Ipsa.Device.collect device 9))

(* --- per-device packet ids ------------------------------------------------------------ *)

let test_packet_ids () =
  let d1 = Ipsa.Device.create ~ntsps:2 () in
  let d2 = Ipsa.Device.create ~ntsps:2 () in
  let mk () = Net.Packet.create ~in_port:0 (String.make 64 '\x00') in
  let p1 = mk () and p2 = mk () and p3 = mk () in
  ignore (Ipsa.Device.inject d1 p1);
  ignore (Ipsa.Device.inject d1 p2);
  ignore (Ipsa.Device.inject d2 p3);
  check Alcotest.int "device1 first id" 1 (Net.Packet.id p1);
  check Alcotest.int "device1 second id" 2 (Net.Packet.id p2);
  check Alcotest.int "device2 restarts at 1" 1 (Net.Packet.id p3)

(* --- relink: every patch recompiles the flat plan ------------------------------------ *)

let flat_plan device =
  Array.append device.Ipsa.Device.flat_ingress device.Ipsa.Device.flat_egress

let powered_templates device =
  let p = Ipsa.Device.pipeline device in
  List.init (Ipsa.Pipeline.ntsps p) (Ipsa.Pipeline.slot p)
  |> List.filter (fun s -> s.Ipsa.Tsp.powered && s.Ipsa.Tsp.template <> None)
  |> List.length

(* Boot compiles every powered template; a patch (which creates the ecmp
   tables and frees nexthop) recompiles them, and the rebuilt programs
   resolve the new tables — traffic keeps forwarding identically to the
   interpreter. *)
let test_relink_after_patch () =
  let session, device = Harness.Cases.boot_base () in
  check Alcotest.int "every powered template is compiled at boot"
    (powered_templates device)
    (Array.length (flat_plan device));
  let before = Array.map snd (flat_plan device) in
  ignore (Harness.Cases.apply_case session Harness.Paper.C1);
  check Alcotest.bool "flat plan covers the patched pipeline" true
    (Ipsa.Device.flat_ready device);
  check Alcotest.int "every powered template is compiled after the patch"
    (powered_templates device)
    (Array.length (flat_plan device));
  check Alcotest.bool "relink rebuilt the programs" false
    (Array.exists (fun (_, prog) -> Array.exists (( == ) prog) before) (flat_plan device));
  let _, dev_i = Diffkit.boot (Some Harness.Paper.C1) in
  let bytes =
    Net.Packet.contents (Net.Flowgen.ipv4_udp Usecases.Base_l23.routed_v4_flow)
  in
  let got = Diffkit.observe_flat device bytes ~in_port:0 in
  Diffkit.assert_same_forwarding ~what:"post-patch traffic" got
    (Diffkit.observe dev_i bytes ~in_port:0);
  match got with
  | Some _, _, _, _ -> ()
  | None, _, _, _ -> Alcotest.fail "post-patch packet was dropped"

(* --- cycles model ------------------------------------------------------------------ *)

let test_cycles_model () =
  let cfg = Ipsa.Cycles.default in
  check Alcotest.int "narrow entry" (cfg.Ipsa.Cycles.match_base + 1)
    (Ipsa.Cycles.mem_access_cycles cfg ~entry_width:100);
  check Alcotest.int "wide entry" (cfg.Ipsa.Cycles.match_base + 3)
    (Ipsa.Cycles.mem_access_cycles cfg ~entry_width:300);
  check Alcotest.int "pipelined hides fetch" 0
    (Ipsa.Cycles.template_cycles { cfg with Ipsa.Cycles.tsp_pipelined = true });
  check Alcotest.bool "ipsa counts cycles" true
    (let device, _ = booted_device () in
     ignore (Ipsa.Device.inject device (Net.Flowgen.l2 Usecases.Base_l23.bridged_flow));
     (Ipsa.Device.stats device).Ipsa.Device.total_cycles > 0)

let () =
  Alcotest.run "ipsa"
    [
      ( "template",
        [
          Alcotest.test_case "json roundtrip" `Quick test_template_json_roundtrip;
          Alcotest.test_case "config roundtrip" `Quick test_config_json_roundtrip;
          Alcotest.test_case "byte size" `Quick test_template_byte_size_positive;
        ] );
      ( "parse-engine",
        [
          Alcotest.test_case "chain" `Quick test_parse_engine_chain;
          Alcotest.test_case "off path" `Quick test_parse_engine_off_path;
          Alcotest.test_case "truncated" `Quick test_parse_engine_truncated_packet;
          Alcotest.test_case "resume" `Quick test_parse_engine_resume_from_deepest;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "selector invariant" `Quick test_pipeline_selector_invariant;
          Alcotest.test_case "describe" `Quick test_pipeline_describe;
        ] );
      ( "tm",
        [
          Alcotest.test_case "fifo/overflow" `Quick test_tm_fifo_and_overflow;
          Alcotest.test_case "drain" `Quick test_tm_drain;
          Alcotest.test_case "boundary after last tsp" `Quick test_tm_boundary_after_last_tsp;
          Alcotest.test_case "boundary at stage 0" `Quick test_tm_boundary_at_stage_zero;
        ] );
      ( "device",
        [
          Alcotest.test_case "boot report" `Quick test_device_boot_report;
          Alcotest.test_case "bad ops" `Quick test_device_bad_ops_rejected;
          Alcotest.test_case "table reachability" `Quick test_device_table_reachability;
          Alcotest.test_case "unreachable = miss" `Quick test_device_unreachable_table_is_miss;
          Alcotest.test_case "miss forwards" `Quick test_device_drop_semantics;
          Alcotest.test_case "buffering during update" `Quick test_device_buffering_during_update;
          Alcotest.test_case "collect" `Quick test_device_collect;
        ] );
      ("cycles", [ Alcotest.test_case "model" `Quick test_cycles_model ]);
      ( "prebind",
        [ Alcotest.test_case "per-device packet ids" `Quick test_packet_ids ] );
      ("relink", [ Alcotest.test_case "after patch" `Quick test_relink_after_patch ]);
    ]
