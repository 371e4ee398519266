(* Shared differential-testing kit.

   The flat, virt and symdiff suites all prove the same shape of
   theorem — "two executions of the same pipeline agree on everything a
   packet traversal can observably produce" — and they used to each carry
   a private copy of the traffic generators and the device-twin plumbing.
   This module is the single home for:

   - the random packet builders ([build_packet] for the use-case spread,
     [mixed_packet] for the deterministic radius stream);
   - the device-twin boot helper ([boot_pair]);
   - one observation type covering egress port, metadata bindings, wire
     bytes and cycle/lookup/parse accounting, with [observe] (context
     path: the reference interpreter), [observe_traced] (the same with a
     stage tracer) and [observe_flat] (batched flat path) producing it;
   - [assert_same_forwarding], the field-by-field comparison used by
     unit tests (QCheck properties compare observations structurally);
   - [to_alcotest], which threads a deterministic QCheck seed: runs are
     reproducible by default, and CI soak jobs override it with the
     QCHECK_SEED environment variable. *)

(* --- seeded QCheck runs ------------------------------------------------- *)

(* Fixed unless QCHECK_SEED is set: local `dune runtest` is reproducible,
   while CI can sweep seeds without any code change. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> invalid_arg ("QCHECK_SEED is not an integer: " ^ s))
  | None -> 0x1057

let to_alcotest test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) test

(* --- traffic ------------------------------------------------------------ *)

(* The QCheck spec space every equivalence property draws from:
   (packet kind, flow index, ingress port). *)
let packet_spec = QCheck.(triple (int_range 0 4) (int_range 0 63) (int_range 0 7))
let equivalence_count = 120

let build_packet (kind, idx, in_port) =
  let flow = Net.Flowgen.flow_of_index idx in
  match kind with
  | 0 -> Net.Flowgen.l2 ~in_port flow
  | 1 -> Net.Flowgen.ipv4_udp ~in_port flow
  | 2 -> Net.Flowgen.ipv4_tcp ~in_port flow
  | 3 -> Net.Flowgen.ipv6_udp ~in_port flow
  | _ ->
    Net.Flowgen.srv6_ipv4 ~in_port ~segments:Usecases.Srv6.segments
      ~segments_left:(idx mod 2) flow

(* A deterministic mixed stream: routed v4 with spread addresses, routed
   v6, and bridged L2 frames — the shape the blast-radius differential
   needs (regenerate the same packet twice; injection rewrites buffers). *)
let mixed_packet seed i =
  let v = ((seed * 7919) + (i * 104729)) land 0xFFFFFF in
  match i mod 6 with
  | 0 -> Net.Flowgen.l2 ~in_port:(i mod 8) (Net.Flowgen.make_flow ())
  | 1 -> Net.Flowgen.ipv6_udp ~in_port:(i mod 8) Usecases.Base_l23.routed_v6_flow
  | _ ->
    Net.Flowgen.ipv4_udp ~in_port:(i mod 8)
      (Net.Flowgen.make_flow
         ~dst_mac:(Net.Addr.Mac.of_string_exn Usecases.Base_l23.router_mac)
         ~src_ip4:(Net.Addr.Ipv4.of_int (0x0A000000 lor (v land 0xFF)))
         ~dst_ip4:(Net.Addr.Ipv4.of_int (0x0A010000 lor ((v * 13) land 0xFFFF)))
         ~sport:(1024 + (v mod 1000))
         ())

(* --- device twins ------------------------------------------------------- *)

(* Every bundled use case the equivalence properties run over. *)
let cases =
  [
    ("base_l23", None);
    ("c1_ecmp", Some Harness.Paper.C1);
    ("c2_srv6", Some Harness.Paper.C2);
    ("c3_flow_probe", Some Harness.Paper.C3);
  ]

let boot case =
  let session, device = Harness.Cases.boot_base () in
  (match case with
  | None -> ()
  | Some c -> ignore (Harness.Cases.apply_case session c));
  (session, device)

(* Identically booted twins: driven with the same packet sequence, the
   stateful hit counters of each advance in lockstep. Which path a twin
   represents is decided by how it is observed ([observe_flat] or the
   interpreter's [observe]), not by how it boots. *)
let boot_pair case =
  let _, a = boot case in
  let _, b = boot case in
  (a, b)

(* --- virtualization twins ------------------------------------------------ *)

(* Tier every table at [pct]% of its current entry count. Resolution
   counts can exceed entry counts (LPM/ternary tables cache one
   resolution per distinct key), so partial residency produces real
   escalations and evictions, not just smaller tables. *)
let virtualize_all device ~pct =
  List.iter
    (fun name ->
      match Ipsa.Device.find_table device name with
      | None -> ()
      | Some tb ->
        Table.virtualize tb ~capacity:(max 1 (Table.entry_count tb * pct / 100)))
    (Ipsa.Device.table_names device)

(* --- a design with a flat gap -------------------------------------------- *)

(* bit<64> arithmetic is outside the flat subset: a device booted with
   this design is never [flat_ready], so its batch path runs on the
   interpreter. The analyzer suite checks its flat-gap prediction against
   it; the flat suite checks that batch fallback. *)
let wide_arith_src =
  {src|
headers {
  header ethernet {
    bit<48> dst_addr;
    bit<48> src_addr;
    bit<16> ethertype;
    implicit parser (ethertype) { }
  }
}

structs {
  struct metadata_t {
    bit<64> acc;
  } meta;
}

action bump() { meta.acc = meta.acc + 1; }
action set_out(bit<16> port) { meta.out_port = port; }

table wide_map {
  key = { ethernet.dst_addr : exact; }
  size = 16;
}
table out_map {
  key = { meta.out_port : exact; }
  size = 16;
}

control rP4_Ingress {
  stage wide {
    parser { ethernet };
    matcher { wide_map.apply(); };
    executor {
      1 : set_out;
      default : bump;
    }
  }
}

control rP4_Egress {
  stage out_st {
    parser { };
    matcher { out_map.apply(); };
    executor {
      1 : set_out;
      default : NoAction;
    }
  }
}

user_funcs {
  func wide_fn { wide out_st }
  ingress_entry : wide;
  egress_entry : out_st;
}
|src}

(* --- observations ------------------------------------------------------- *)

(* Everything a packet's traversal can observably produce. *)
type observation =
  int option
  * (string * Net.Bits.t) list
  * string
  * (int * int * int) (* cycles, lookups, parse attempts *)

let observation_of_ctx pkt = function
  | Some (port, (ctx : Ipsa.Context.t)) ->
    ( Some port,
      Net.Meta.bindings ctx.Ipsa.Context.meta,
      Net.Packet.contents ctx.Ipsa.Context.pkt,
      ( ctx.Ipsa.Context.cycles,
        ctx.Ipsa.Context.lookups,
        ctx.Ipsa.Context.parse_attempts ) )
  | None -> (None, [], Net.Packet.contents pkt, (0, 0, 0))

(* The observation of one slot of a batch result; [pkt] is the injected
   packet, written back in place. *)
let observation_of_result pkt = function
  | Some (r : Ipsa.Device.batch_result) ->
    ( Some r.Ipsa.Device.br_port,
      r.Ipsa.Device.br_meta,
      Net.Packet.contents pkt,
      ( r.Ipsa.Device.br_cycles,
        r.Ipsa.Device.br_lookups,
        r.Ipsa.Device.br_parse_attempts ) )
  | None -> (None, [], Net.Packet.contents pkt, (0, 0, 0))

(* Context path ([inject]): the reference interpreter. *)
let observe device bytes ~in_port : observation =
  let pkt = Net.Packet.create ~in_port bytes in
  observation_of_ctx pkt (Ipsa.Device.inject device pkt)

(* The interpreter with a per-packet tracer attached: the trace hooks
   must not change anything the packet observes. *)
let observe_traced device bytes ~in_port : observation =
  let pkt = Net.Packet.create ~in_port bytes in
  observation_of_ctx pkt (fst (Ipsa.Device.inject_traced device pkt))

(* Same observable, via the batched flat path. *)
let observe_flat device bytes ~in_port : observation =
  let pkt = Net.Packet.create ~in_port bytes in
  observation_of_result pkt (Ipsa.Device.inject_batch device [| pkt |]).(0)

(* --- comparison --------------------------------------------------------- *)

(* Field-by-field check so a failure names the diverging facet instead of
   dumping two opaque tuples. *)
let assert_same_forwarding ~what (a : observation) (b : observation) =
  let pa, ma, ba, (ca, la, ra) = a and pb, mb, bb, (cb, lb, rb) = b in
  let port = function Some p -> string_of_int p | None -> "drop" in
  if pa <> pb then
    Alcotest.failf "%s: egress ports differ (%s vs %s)" what (port pa) (port pb);
  if ma <> mb then Alcotest.failf "%s: metadata bindings differ" what;
  if ba <> bb then Alcotest.failf "%s: wire bytes differ" what;
  if ca <> cb then Alcotest.failf "%s: cycle counts differ (%d vs %d)" what ca cb;
  if la <> lb then Alcotest.failf "%s: lookup counts differ (%d vs %d)" what la lb;
  if ra <> rb then
    Alcotest.failf "%s: parse attempts differ (%d vs %d)" what ra rb

(* Forwarding-only comparison for virtualized-vs-resident twins: a tier
   miss changes cycle accounting (the modeled escalation penalty) but
   must never change the egress port, metadata or wire bytes. *)
let same_forwarding (a : observation) (b : observation) =
  let pa, ma, ba, _ = a and pb, mb, bb, _ = b in
  pa = pb && ma = mb && ba = bb

let assert_same_forwarding_weak ~what (a : observation) (b : observation) =
  let pa, ma, ba, _ = a and pb, mb, bb, _ = b in
  let port = function Some p -> string_of_int p | None -> "drop" in
  if pa <> pb then
    Alcotest.failf "%s: egress ports differ (%s vs %s)" what (port pa) (port pb);
  if ma <> mb then Alcotest.failf "%s: metadata bindings differ" what;
  if ba <> bb then Alcotest.failf "%s: wire bytes differ" what
