(* fib_churn: LPM-heavy forwarding beside route writes. The base design
   with [ipv4_lpm]/[ipv6_lpm] declared large enough, on a pool sized to
   keep them resident, holds 10k v4 + 2.5k v6 generated routes loaded at
   set-up with [Table.load]. A round is 4096 64-byte packets (80% v4;
   80% of destinations inside 1250 hot routes, the rest inside any
   route), then a burst of 64 route events through [Session.exec] in
   withdraw/re-announce pairs of a hot route, v4 ones possibly moving to
   the other next hop. A read speed-up that costs writes, or the
   reverse, shows only here. *)

open Common
module Rng = Prelude.Rng
module Fibgen = Fabric.Fibgen

(* 10k routes, not an internet-scale 100k: at 100k the flat view's
   linear scan works through ~17 MB, which lives in the last-level cache
   the host shares with other tenants, and their traffic swings run
   times by 1.5-2x. At 10k it stays steady within a few percent. *)
let n_v4 = 10_000
let n_v6 = 2_500
let n_hot_v4 = 1_000
let n_hot_v6 = 250
let phase_packets = 4096
let events_per_burst = 64

(* Raise a table's declared size in the design source. *)
let resize source ~table ~size =
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length source then invalid_arg ("resize: no " ^ sub)
      else if String.sub source i n = sub then i
      else go (i + 1)
    in
    go from
  in
  let j = find "size = " (find ("table " ^ table ^ " {") 0) + 7 in
  let k = String.index_from source j ';' in
  String.sub source 0 j ^ string_of_int size ^ String.sub source k (String.length source - k)

let source =
  resize ~table:"ipv6_lpm" ~size:(n_v6 + 64)
    (resize ~table:"ipv4_lpm" ~size:(n_v4 + 64) Usecases.Base_l23.source)

(* Room for the two route tables on top of the base design's own. *)
let make_pool () = Mem.Pool.create ~nblocks:512 ~block_width:128 ~block_depth:1024 ~nclusters:4

type fam = { f_table : string; f_width : int; f_text : string -> string; f_ref : Ref_lpm.t }

let key_text fam prefix plen = Printf.sprintf "%s/%d" (fam.f_text prefix) plen

let host_route = Net.Lpm.key_of_v4 (Net.Addr.Ipv4.of_string_exn "10.1.0.1")

let generate ~seed =
  let rng = Rng.create seed in
  (* v4 routes use next hop 1 or 2 (ports 1 and 2), v6 routes next hop 3. *)
  let base_v4 = (Net.Lpm.key_of_v4 (Net.Addr.Ipv4.of_string_exn "10.1.0.0"), 16) in
  let base_v6 = (String.sub (Net.Addr.Ipv6.of_index 0) 0 4 ^ String.make 12 '\000', 32) in
  let drop_base (p, l) routes =
    List.filter (fun r -> not (r.Fibgen.r_prefix = p && r.Fibgen.r_plen = l)) routes
  in
  let v4 =
    Array.of_list (drop_base base_v4 (Fibgen.generate_v4 ~rng ~n:n_v4 ~nports:2))
  in
  let v6 =
    Array.map
      (fun r -> { r with Fibgen.r_port = 3 })
      (Array.of_list (drop_base base_v6 (Fibgen.generate_v6 ~rng ~n:n_v6 ~nports:1)))
  in
  (* A fixed number of hot routes, so the traffic's average scan depth
     does not swing with the seed. *)
  let hot_v4 = Array.init n_hot_v4 (fun _ -> v4.(Rng.int rng (Array.length v4))) in
  let hot_v6 = Array.init n_hot_v6 (fun _ -> v6.(Rng.int rng (Array.length v6))) in
  let pick_dst hot all =
    let from = if Rng.int rng 10 < 8 then hot else all in
    let r = from.(Rng.int rng (Array.length from)) in
    inside rng r.Fibgen.r_prefix r.Fibgen.r_plen
  in
  let pkts =
    Array.init phase_packets (fun _ ->
        let in_port = Rng.int rng 8 in
        let flow = { (Net.Flowgen.random_flow rng) with Net.Flowgen.dst_mac = router_mac } in
        if Rng.int rng 10 < 8 then begin
          let a = pick_dst hot_v4 v4 in
          let flow = { flow with Net.Flowgen.dst_ip4 = String.get_int32_be a 0 } in
          pkt_of (frame ~in_port ~size:64 flow `V4) []
        end
        else begin
          let a = pick_dst hot_v6 v6 in
          pkt_of (frame ~in_port ~size:64 { flow with Net.Flowgen.dst_ip6 = a } `V6) []
        end)
  in
  let event_seed = Rng.int rng max_int in
  fun () ->
    let fam f_table f_width f_text = { f_table; f_width; f_text; f_ref = Ref_lpm.create ~width:f_width } in
    let v4f = fam "ipv4_lpm" 32 v4_text and v6f = fam "ipv6_lpm" 128 v6_text in
    twin_compile ~make_pool source;
    let session, device = boot ~make_pool ~source () in
    if Ipsa.Device.virt_tables device <> [] then failwith "fib_churn: route tables were virtualized";
    let table fam =
      match Ipsa.Device.find_table device fam.f_table with
      | Some tb -> tb
      | None -> failwith ("fib_churn: no table " ^ fam.f_table)
    in
    let action =
      match Controller.Runtime.find_api (Controller.Session.apis session) v4f.f_table with
      | Some api -> (
        match
          List.find_opt
            (fun a -> a.Controller.Runtime.as_name = "set_nexthop")
            api.Controller.Runtime.ta_actions
        with
        | Some a -> string_of_int a.Controller.Runtime.as_tag
        | None -> failwith "fib_churn: no set_nexthop action")
      | None -> failwith "fib_churn: no ipv4_lpm table"
    in
    let matches fam prefix plen =
      [ Table.Key.M_exact vrf; Table.Key.M_lpm (B.create ~width:fam.f_width prefix, plen) ]
    in
    (* The base population's route, a default route so every destination
       stays covered while hot routes come and go, then the FIB. *)
    let routes fam (base_prefix, base_plen) base_nh fib =
      (base_prefix, base_plen, base_nh)
      :: (String.make (fam.f_width / 8) '\000', 0, base_nh)
      :: Array.to_list (Array.map (fun r -> (r.Fibgen.r_prefix, r.Fibgen.r_plen, r.Fibgen.r_port)) fib)
    in
    (* In the traced run a twin [Table] with the same contents takes the
       same writes, timed on their own. *)
    let twins = Hashtbl.create 2 in
    let load fam all =
      List.iter (fun (prefix, plen, nh) -> Ref_lpm.add fam.f_ref ~prefix ~plen nh) all;
      let rows =
        List.map (fun (p, l, nh) -> (matches fam p l, action, [ B.of_int ~width:16 nh ])) all
      in
      (* The base route is in the table already. *)
      Table.load (table fam) (List.tl rows);
      if !Meter.enabled then begin
        let twin = Table.create (Table.spec (table fam)) in
        Table.load twin rows;
        Hashtbl.replace twins fam.f_table twin
      end
    in
    load v4f (routes v4f base_v4 1 v4);
    load v6f (routes v6f base_v6 3 v6);
    let hot =
      Array.append (Array.map (fun r -> (v4f, r)) hot_v4) (Array.map (fun r -> (v6f, r)) hot_v6)
    in
    let erng = Rng.create event_seed in
    let oracle p port =
      match p.dst with
      | V4 a when a = host_route -> port = Usecases.Base_l23.expected_port_host_v4
      | V4 a -> Ref_lpm.lookup v4f.f_ref a = Some port
      | V6 a -> Ref_lpm.lookup v6f.f_ref a = Some port
      | L2 -> false
    in
    (* One route event of a withdraw/re-announce pair: even events
       withdraw a random hot route, odd ones announce it again, v4 ones
       on a random one of the two next hops. Every packet phase thus
       sees the whole FIB, whatever the seed. *)
    let withdrawn = ref None in
    let event ctx =
      let (fam, r), next =
        match !withdrawn with
        | None -> (hot.(Rng.int erng (Array.length hot)), None)
        | Some h -> (h, Some (if fst h == v4f then 1 + Rng.int erng 2 else 3))
      in
      let prefix = r.Fibgen.r_prefix and plen = r.Fibgen.r_plen in
      let keys = [ "10"; key_text fam prefix plen ] in
      let cmd =
        match next with
        | None -> Controller.Command.Table_del { table = fam.f_table; keys }
        | Some nh ->
          Controller.Command.Table_add
            { table = fam.f_table; action = "set_nexthop"; keys; args = [ string_of_int nh ] }
      in
      let check = function
        | Error e -> fail ctx ("route event: " ^ e)
        | Ok _ -> (
          let m = matches fam prefix plen in
          let twin = Hashtbl.find_opt twins fam.f_table in
          match next with
          | None ->
            withdrawn := Some (fam, r);
            Ref_lpm.remove fam.f_ref ~prefix ~plen;
            Option.iter (fun tb -> ignore (Meter.span "table.delete" (fun () -> Table.delete tb m))) twin
          | Some nh ->
            withdrawn := None;
            Ref_lpm.add fam.f_ref ~prefix ~plen nh;
            Option.iter
              (fun tb ->
                Meter.span "table.insert" (fun () ->
                    Table.insert tb ~matches:m ~action ~args:[ B.of_int ~width:16 nh ] ()))
              twin)
      in
      ignore (op ctx "route" ~check (fun () -> exec session cmd))
    in
    let reference = lazy device in
    {
      run =
        (fun ctx ->
          rounds_until_deadline ctx (fun () ->
              burst ctx ~first_cls:"first_batch" ~reference ~expect_port:oracle device pkts;
              for _ = 1 to events_per_burst do
                event ctx
              done));
      diagnostics =
        (fun ctx ->
          (mpps ctx [ "batch"; "first_batch" ]
          :: latency ctx "route" ~name:"route_update" ~scale:1e6 ~unit_:"us")
          @ latency ctx "first_batch" ~name:"ipsa.first_batch_after_write" ~scale:1e6 ~unit_:"us"
          @ batch_latency ctx);
      teardown = ignore;
    }

let workload = { name = "fib_churn"; generate }
