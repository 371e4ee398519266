(* insitu_cycle: the paper's Table 1 sequence on a live device, repeated.
   A round is a base burst of 4096 packets, then for C1, C2, C3 in paper
   order: stage the update script, [Session.prepare] (t_C),
   [Session.apply_prepared] (t_L), the use case's population and a
   4096-packet burst of its demo traffic; then [Session.boot] + base
   population of the next round's device. Exercises the rP4 parser,
   rp4bc's incremental compile, verification and blast radius, patch
   application and the first packets after each update. *)

open Common
module Rng = Prelude.Rng
module U = Usecases

let burst_packets = 4096

type case = {
  c_staging : Controller.Command.t list;
  c_population : string;
  c_source : string; (* the snippet the staging loads *)
  c_traffic : pkt array;
}

(* Ports the use-case traffic may take once C1's ECMP has replaced the
   next-hop stage: v4 spreads over the members, v6 (SRv6 included) and
   bridged traffic keep their base ports. *)
let expect_after_update = function
  | V4 _ -> U.Ecmp.v4_member_ports
  | V6 _ -> [ U.Srv6.expected_port ]
  | L2 -> [ U.Base_l23.expected_port_bridged ]

let demo_traffic rng demo =
  let pkts =
    Array.init burst_packets (fun i ->
        let p = pkt_of (demo i) [] in
        { p with expect = expect_after_update p.dst })
  in
  Rng.shuffle rng pkts;
  pkts

(* The base burst: the four canonical base-design classes. *)
let base_traffic rng =
  let module B23 = U.Base_l23 in
  Array.init burst_packets (fun _ ->
      let in_port = Rng.int rng 8 in
      let flow, kind, port =
        match Rng.int rng 10 with
        | 0 | 1 | 2 | 3 -> (B23.routed_v4_flow, `V4, B23.expected_port_routed_v4)
        | 4 | 5 -> (B23.host_route_v4_flow, `V4, B23.expected_port_host_v4)
        | 6 | 7 -> (B23.routed_v6_flow, `V6, B23.expected_port_routed_v6)
        | _ -> (B23.bridged_flow, `L2, B23.expected_port_bridged)
      in
      pkt_of (frame ~in_port ~size:64 flow kind) [ port ])

let cases rng =
  [
    (U.Ecmp.script, U.Ecmp.population, U.Ecmp.source, U.Ecmp.demo_packet);
    (U.Srv6.script, U.Srv6.population, U.Srv6.source, U.Srv6.demo_packet);
    (U.Flowprobe.script, U.Flowprobe.population, U.Flowprobe.source, U.Flowprobe.demo_packet);
  ]
  |> List.map (fun (script, c_population, c_source, demo) ->
         {
           c_staging = staging_of script;
           c_population;
           c_source;
           c_traffic = demo_traffic rng demo;
         })

let generate ~seed =
  let rng = Rng.create seed in
  let base = base_traffic rng in
  let cases = cases rng in
  let ok what ctx = function Ok _ -> () | Error e -> fail ctx (what ^ ": " ^ e) in
  let errs what ctx = function
    | Ok _ -> ()
    | Error es -> fail ctx (what ^ ": " ^ String.concat "; " es)
  in
  fun () ->
    let source = U.Base_l23.source in
    twin_compile source;
    let current = ref (boot ~source ()) in
    let update ctx (session, device) c =
      op ctx "stage" ~check:(ok "stage" ctx) (fun () -> exec_all session c.c_staging) |> ignore;
      if !Meter.enabled then twin_prepare session ~staging:c.c_staging ~snippet:c.c_source;
      (match
         op ctx "prepare" ~check:(errs "prepare" ctx) (fun () ->
             Meter.span "controller.prepare" (fun () -> Controller.Session.prepare session))
       with
      | Ok prepared ->
        op ctx "apply" ~check:(errs "apply_prepared" ctx) (fun () ->
            Meter.span "controller.apply_prepared" (fun () ->
                Controller.Session.apply_prepared session prepared))
        |> ignore
      | Error _ -> ());
      op ctx "population" ~check:(ok "population" ctx) (fun () ->
          Meter.span "controller.population" (fun () -> run_script session c.c_population))
      |> ignore;
      burst ctx ~first_cls:"first_batch" ~reference:(lazy device) device c.c_traffic
    in
    {
      run =
        (fun ctx ->
          rounds_until_deadline ctx (fun () ->
              let session, device = !current in
              burst ctx ~reference:(lazy device) device base;
              let before = (S.sum (samples ctx "prepare"), S.sum (samples ctx "apply")) in
              List.iter (update ctx (session, device)) cases;
              S.add (samples ctx "cycle_t_C") (S.sum (samples ctx "prepare") -. fst before);
              S.add (samples ctx "cycle_t_L") (S.sum (samples ctx "apply") -. snd before);
              twin_compile source;
              current := op ctx "boot" (fun () -> boot ~source ())));
      diagnostics =
        (fun ctx ->
          [
            mpps ctx [ "batch"; "first_batch" ];
            ("boot_ms", p50 ctx "boot" *. 1e3, "ms", n_of ctx "boot");
            ("t_C_ms", p50 ctx "cycle_t_C" *. 1e3, "ms", n_of ctx "cycle_t_C");
            ("t_L_ms", p50 ctx "cycle_t_L" *. 1e3, "ms", n_of ctx "cycle_t_L");
            ( "ipsa.fallback_share",
              float_of_int ctx.fallback /. float_of_int (max 1 ctx.packets),
              "share",
              ctx.packets );
          ]
          @ latency ctx "first_batch" ~name:"ipsa.first_batch_after_update" ~scale:1e6 ~unit_:"us");
      teardown = ignore;
    }

let workload = { name = "insitu_cycle"; generate }
