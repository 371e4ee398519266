(* fwd_l23: steady-state forwarding on the base design. 4096 seeded flows
   (40% routed v4, 20% host-route v4, 20% routed v6, 20% bridged) with
   IMIX frame sizes go through [inject_batch] + [collect_all] in batches
   of 32; one round is one pass over the flows. Exercises packet
   creation, parsing, the LPM and exact [Table.Engine] probes, the batch
   shims and allocation; bypasses the compiler and the control plane. *)

open Common
module Rng = Prelude.Rng
module U = Usecases.Base_l23

let nflows = 4096
let nhosts = 1024
let router_v4 = 0x0A010000 (* 10.1.0.0/16, the routed prefix *)
let base_host = 0x0A010001 (* 10.1.0.1, the base population's host route *)

(* IMIX 7:4:1 over 64, 594 and 1518-byte frames. *)
let imix rng =
  match Rng.int rng 12 with n when n < 7 -> 64 | n when n < 11 -> 594 | _ -> 1518

(* Host routes: distinct addresses inside the routed /16, so the host
   table must win over the LPM for them. *)
let host_addresses rng =
  let seen = Hashtbl.create nhosts in
  let out = ref [] in
  while Hashtbl.length seen < nhosts do
    let a = router_v4 lor Rng.int rng 0x10000 in
    if a <> base_host && not (Hashtbl.mem seen a) then begin
      Hashtbl.add seen a ();
      out := a :: !out
    end
  done;
  (Array.of_list (List.rev !out), seen)

let flows rng ~hosts ~is_host =
  Array.init nflows (fun _ ->
      let size = imix rng in
      let in_port = Rng.int rng 8 in
      let base = Net.Flowgen.random_flow rng in
      let routed = { base with Net.Flowgen.dst_mac = router_mac } in
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 ->
        let rec pick () =
          let a = router_v4 lor Rng.int rng 0x10000 in
          if a = base_host || is_host a then pick () else a
        in
        let a = pick () in
        let flow = { routed with Net.Flowgen.dst_ip4 = Int32.of_int a } in
        pkt_of (frame ~in_port ~size flow `V4) [ U.expected_port_routed_v4 ]
      | 4 | 5 ->
        let a = hosts.(Rng.int rng (Array.length hosts)) in
        let flow = { routed with Net.Flowgen.dst_ip4 = Int32.of_int a } in
        pkt_of (frame ~in_port ~size flow `V4) [ U.expected_port_host_v4 ]
      | 6 | 7 ->
        (* 2001:db8::/32 with random low bits *)
        let a = String.sub (Net.Addr.Ipv6.of_index 0) 0 4 ^ Rng.bytes rng 12 in
        let flow = { routed with Net.Flowgen.dst_ip6 = a } in
        pkt_of (frame ~in_port ~size flow `V6) [ U.expected_port_routed_v6 ]
      | _ ->
        let flow = { base with Net.Flowgen.dst_mac = U.bridged_flow.Net.Flowgen.dst_mac } in
        pkt_of (frame ~in_port ~size flow `L2) [ U.expected_port_bridged ])

let host_routes hosts =
  Array.to_list hosts
  |> List.map (fun a ->
         Printf.sprintf "table_add ipv4_host set_nexthop 10 %s => %d"
           (Net.Addr.Ipv4.to_string (Int32.of_int a))
           U.expected_port_host_v4)
  |> String.concat "\n"

let generate ~seed =
  let rng = Rng.create seed in
  let hosts, seen = host_addresses rng in
  let pkts = flows rng ~hosts ~is_host:(Hashtbl.mem seen) in
  let extra = host_routes hosts in
  fun () ->
    twin_compile U.source;
    let _session, device = boot ~extra ~source:U.source () in
    (* The byte-for-byte reference: a twin device driven by
       [Device.inject], booted the first time a batch is checked. *)
    let reference = lazy (snd (untraced (fun () -> boot ~extra ~source:U.source ()))) in
    {
      run =
        (fun ctx ->
          rounds_until_deadline ctx (fun () -> burst ctx ~reference device pkts));
      diagnostics = (fun ctx -> mpps ctx [ "batch" ] :: batch_latency ctx);
      teardown = ignore;
    }

let workload = { name = "fwd_l23"; generate }
