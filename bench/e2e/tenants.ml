(* ipbmd_tenants: control-plane latency with two tenants. A forked child
   runs [Service.Server] on a Unix socket, as [ipbm serve] does; set-up
   opens a FIB session and loads 100k v4 + 25k v6 routes into it. Two
   connections, one request outstanding each, loop a tenant lifecycle:
   open_session; for C1, C2, C3: check, compile, patch, commit (the
   population), stats and three fib_lookups on the FIB session; then
   close_session. [stats] and [fib_lookup] are reads, every other op a
   write. The server handles requests one at a time in a single select
   loop, so one tenant's reads queue behind the other's compile; no
   packets are forwarded over the socket. *)

open Common
module J = Prelude.Json
module Rng = Prelude.Rng
module Client = Service.Client
module Fibgen = Fabric.Fibgen

let n_v4 = 100_000
let n_v6 = 25_000
let lookups_per_phase = 3

type step =
  | Open
  | Check of Insitu.case
  | Compile of Insitu.case
  | Patch
  | Commit of Insitu.case
  | Stats
  | Lookup
  | Close

let is_read = function Stats | Lookup -> true | _ -> false

let lifecycle cases =
  Array.of_list
    ((Open
     :: List.concat_map
          (fun c ->
            [ Check c; Compile c; Patch; Commit c; Stats ]
            @ List.init lookups_per_phase (fun _ -> Lookup))
          cases)
    @ [ Close ])

let script_of staging = Controller.Command.print_script staging

(* The request a connection waits on. *)
type pending = {
  p_id : int;
  p_sent : float;
  p_step : step;
  p_addr : int; (* lookup address index *)
  p_contended : bool; (* sent while the other connection waited on a write *)
}

type conn = {
  client : Client.t;
  tenant : string;
  mutable sid : int;
  mutable patch : int;
  mutable pos : int; (* next step of the lifecycle *)
  mutable busy : pending option;
  mutable life : float; (* seconds of requests in the current lifecycle *)
}

(* --- the forked server --------------------------------------------------- *)

let sock_counter = ref 0

(* A relative socket path: the benchmark writes only below its working
   directory, and the name stays far below the 108-byte limit. *)
let fresh_socket () =
  incr sock_counter;
  Printf.sprintf "ipbmd-bench-%d-%d.sock" (Unix.getpid ()) !sock_counter

(* The child runs [Service.Server.serve]'s loop, and also stops if the
   benchmark process dies, so no server outlives a run. *)
let fork_server path =
  flush stdout;
  flush stderr;
  let parent = Unix.getpid () in
  match Unix.fork () with
  | 0 ->
    (try
       let server = Service.Server.create ~endpoints:[ Service.Server.Unix_path path ] () in
       while Service.Server.step server && Unix.getppid () = parent do
         ()
       done;
       Service.Server.shutdown server
     with _ -> Unix._exit 2);
    Unix._exit 0
  | pid -> pid

let rec connect path tries =
  match Client.connect_unix path with
  | c -> c
  | exception Unix.Unix_error _ when tries > 0 ->
    ignore (Unix.select [] [] [] 0.01);
    connect path (tries - 1)

(* Wait for the child, killing it if it has not gone within a few
   seconds of the shutdown request. *)
let reap pid =
  let rec go tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
      ignore (Unix.select [] [] [] 0.05);
      go (tries - 1)
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  go 100

let call_ok c ~op ~params =
  match Client.call ~timeout:600.0 c ~op ~params with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" op e)

let int_member name j = match J.member name j with Some (J.Int i) -> i | _ -> -1

(* --- the traced window's replay ---------------------------------------------- *)

let replay_lifecycles = 10

(* The lifecycle again, in process, on a local [Controller.Session] with a
   live telemetry registry as the server's tenants have: the RPC latency
   minus these spans is the service's own overhead. After each phase one
   batch of the phase's traffic crosses the replayed device, as a check
   that the lifecycle left a working switch. *)
let replay ctx cases =
  let scratch = create_ctx () in
  let source = Usecases.Base_l23.source in
  for i = 1 to replay_lifecycles do
    Meter.op := i;
    twin_compile source;
    let session, device =
      Meter.span "controller.op.open" (fun () -> boot ~telemetry:(Telemetry.create ()) ~source ())
    in
    let stage (c : Insitu.case) = or_fail "stage" (exec_all session c.Insitu.c_staging) in
    let prepare () =
      Controller.Session.prepare session |> Result.map_error (String.concat "; ") |> or_fail "prepare"
    in
    List.iter
      (fun (c : Insitu.case) ->
        Meter.span "controller.op.check" (fun () ->
            stage c;
            ignore (prepare ());
            Controller.Session.discard session);
        twin_prepare session ~staging:c.Insitu.c_staging ~snippet:c.Insitu.c_source;
        let prepared =
          Meter.span "controller.op.compile" (fun () ->
              stage c;
              Meter.span "controller.prepare" prepare)
        in
        Meter.span "controller.op.patch" (fun () ->
            Controller.Session.apply_prepared session prepared
            |> Result.map_error (String.concat "; ")
            |> or_fail "apply_prepared" |> ignore);
        Meter.span "controller.op.commit" (fun () ->
            or_fail "population" (run_script session c.Insitu.c_population));
        Meter.span "controller.op.stats" (fun () ->
            ignore (J.to_string (Telemetry.to_json (Controller.Session.metrics session))));
        forward scratch ~reference:(lazy device) device (Array.sub c.Insitu.c_traffic 0 batch_size))
      cases
  done;
  if scratch.ever_failed then fail ctx ("replay: " ^ String.concat "; " scratch.messages)

(* Framing and JSON coding alone, over payloads the loop exchanged. *)
let time_codec payloads =
  let n = List.length payloads in
  Meter.span ~items:n "service.frame" (fun () ->
      List.iter
        (fun p ->
          let d = Service.Frame.decoder () in
          Service.Frame.feed_string d (Service.Frame.encode p);
          ignore (Sys.opaque_identity (Service.Frame.next d)))
        payloads);
  Meter.span ~items:n "service.json" (fun () ->
      List.iter (fun p -> ignore (Sys.opaque_identity (J.to_string (J.of_string p)))) payloads)

(* --- the loop ---------------------------------------------------------------- *)

let generate ~seed =
  let rng = Rng.create seed in
  let fib_seed = Rng.int rng 1_000_000 in
  (* The server's FIB is [Fibgen.build ~seed:fib_seed]: the same
     generator calls, in the same order, give the oracle its routes. *)
  let frng = Rng.create fib_seed in
  let routes_v4 = Array.of_list (Fibgen.generate_v4 ~rng:frng ~n:n_v4 ~nports:16) in
  let routes_v6 = Array.of_list (Fibgen.generate_v6 ~rng:frng ~n:n_v6 ~nports:16) in
  let reference ~width routes =
    let t = Ref_lpm.create ~width in
    Array.iter
      (fun r -> Ref_lpm.add t ~prefix:r.Fibgen.r_prefix ~plen:r.Fibgen.r_plen r.Fibgen.r_port)
      routes;
    t
  in
  let ref4 = reference ~width:32 routes_v4 and ref6 = reference ~width:128 routes_v6 in
  (* Lookup addresses inside the routes, 80% v4; with their expected port. *)
  let addrs =
    Array.init 4096 (fun _ ->
        if Rng.int rng 10 < 8 then begin
          let r = routes_v4.(Rng.int rng (Array.length routes_v4)) in
          let a = inside rng r.Fibgen.r_prefix r.Fibgen.r_plen in
          (v4_text a, Ref_lpm.lookup ref4 a)
        end
        else begin
          let r = routes_v6.(Rng.int rng (Array.length routes_v6)) in
          let a = inside rng r.Fibgen.r_prefix r.Fibgen.r_plen in
          (v6_text a, Ref_lpm.lookup ref6 a)
        end)
  in
  let cases = Insitu.cases rng in
  let steps = lifecycle cases in
  fun () ->
    let path = fresh_socket () in
    let pid = fork_server path in
    let conns =
      try
        Array.init 2 (fun i ->
            {
              client = connect path 500;
              tenant = Printf.sprintf "tenant%d" i;
              sid = -1;
              patch = -1;
              pos = 0;
              busy = None;
              life = 0.0;
            })
      with e ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        raise e
    in
    let teardown () =
      (try ignore (Client.call ~timeout:5.0 conns.(0).client ~op:"shutdown" ~params:(J.Obj []))
       with _ -> ());
      Array.iter (fun c -> Client.close c.client) conns;
      reap pid;
      try Unix.unlink path with Unix.Unix_error _ -> ()
    in
    let fib_sid =
      try
        let c = conns.(0).client in
        let sid =
          int_member "session"
            (call_ok c ~op:"open_session" ~params:(J.Obj [ ("tenant", J.String "fib") ]))
        in
        ignore
          (call_ok c ~op:"fib_load"
             ~params:
               (J.Obj
                  [
                    ("session", J.Int sid);
                    ("v4", J.Int n_v4);
                    ("v6", J.Int n_v6);
                    ("seed", J.Int fib_seed);
                  ]));
        sid
      with e ->
        teardown ();
        raise e
    in
    let next_addr = ref 0 in
    (* The traced window keeps the last payloads it exchanged. *)
    let payloads = ref [] in
    let keep p = payloads := p :: List.filteri (fun i _ -> i < 63) !payloads in
    let stats_bytes = ref 0 in
    let request conn addr step =
      let session = ("session", J.Int conn.sid) in
      let script s = ("script", J.String s) in
      match step with
      | Open -> ("open_session", [ ("tenant", J.String conn.tenant) ])
      | Check c -> ("check", [ session; script (script_of c.Insitu.c_staging) ])
      | Compile c -> ("compile", [ session; script (script_of c.Insitu.c_staging) ])
      | Patch -> ("patch", [ session; ("patch", J.Int conn.patch) ])
      | Commit c -> ("commit", [ session; script c.Insitu.c_population ])
      | Stats -> ("stats", [ session ])
      | Lookup -> ("fib_lookup", [ ("session", J.Int fib_sid); ("addr", J.String (fst addrs.(addr))) ])
      | Close -> ("close_session", [ session ])
    in
    (* Check a response and carry its ids into the connection's state. *)
    let check ctx conn p result =
      match (p.p_step, result) with
      | _, Error e -> fail ctx (Printf.sprintf "rpc error: %s" e)
      | Open, Ok j -> conn.sid <- int_member "session" j
      | Check _, Ok j ->
        if J.member "valid" j <> Some (J.Bool true) then fail ctx "check: update not valid"
      | Compile _, Ok j -> conn.patch <- int_member "patch" j
      | Patch, Ok j ->
        if int_member "applied" j <> conn.patch then fail ctx "patch: wrong patch applied"
      | Commit _, Ok _ | Close, Ok _ -> ()
      | Stats, Ok j ->
        stats_bytes := String.length (J.to_string j);
        if int_member "requests" (Option.value (J.member "session" j) ~default:J.Null) <= 0 then
          fail ctx "stats: dead request counter"
      | Lookup, Ok j ->
        let _, expect = addrs.(p.p_addr) in
        let port = match J.member "trie_port" j with Some (J.Int p) -> Some p | _ -> None in
        if port <> expect || J.member "agree" j <> Some (J.Bool true) then
          fail ctx "fib_lookup: wrong port"
    in
    let send other conn =
      let step = steps.(conn.pos) in
      let addr = !next_addr mod Array.length addrs in
      if step = Lookup then incr next_addr;
      let op, params = request conn addr step in
      let contended =
        match other.busy with Some p -> not (is_read p.p_step) | None -> false
      in
      let id = Client.send conn.client ~op ~params:(J.Obj params) in
      if !Meter.enabled then
        keep (J.to_string (J.Obj [ ("id", J.Int id); ("op", J.String op); ("params", J.Obj params) ]));
      conn.busy <-
        Some { p_id = id; p_sent = Meter.now (); p_step = step; p_addr = addr; p_contended = contended }
    in
    let run ctx =
      let t0 = Meter.now () in
      Array.iteri (fun i c -> send conns.(1 - i) c) conns;
      while Array.exists (fun c -> c.busy <> None) conns do
        let fds =
          Array.to_list conns
          |> List.filter_map (fun c -> if c.busy = None then None else Some c.client.Client.fd)
        in
        let ready, _, _ = Unix.select fds [] [] 60.0 in
        if ready = [] then failwith "ipbmd_tenants: no response within 60 s";
        Array.iteri
          (fun i conn ->
            match conn.busy with
            | Some p when List.mem conn.client.Client.fd ready ->
              let result = Client.await ~timeout:60.0 conn.client p.p_id in
              let dt = Meter.now () -. p.p_sent in
              if !Meter.enabled then Result.iter (fun j -> keep (J.to_string j)) result;
              conn.busy <- None;
              ctx.op_failed <- false;
              check ctx conn p result;
              let step = p.p_step in
              let cls = if is_read step then "read" else "write" in
              S.add (samples ctx cls) dt;
              if is_read step && p.p_contended then S.add (samples ctx "read_contended") dt;
              if step = Stats && p.p_contended then S.add (samples ctx "stats_contended") dt;
              ctx.ops <- ctx.ops + 1;
              if ctx.op_failed then ctx.failed <- ctx.failed + 1;
              conn.life <- conn.life +. dt;
              conn.pos <- conn.pos + 1;
              if conn.pos = Array.length steps then begin
                S.add ctx.rounds conn.life;
                conn.life <- 0.0;
                conn.pos <- 0;
                if Meter.now () < ctx.deadline then send conns.(1 - i) conn
              end
              else send conns.(1 - i) conn
            | _ -> ())
          conns
      done;
      ctx.op_time <- ctx.op_time +. (Meter.now () -. t0);
      if !Meter.enabled then begin
        replay ctx cases;
        time_codec !payloads
      end
    in
    {
      run;
      diagnostics =
        (fun ctx ->
          (("rpc_per_s", float_of_int ctx.ops /. ctx.op_time, "1/s", ctx.ops)
          :: latency ctx "read" ~name:"rpc_read" ~scale:1e3 ~unit_:"ms")
          @ latency ctx "write" ~name:"rpc_write" ~scale:1e3 ~unit_:"ms"
          @ [
              ("service.stats_resp_bytes", float_of_int !stats_bytes, "B", 1);
              ( "rpc_read_contended_mean_ms",
                S.mean (samples ctx "read_contended") *. 1e3,
                "ms",
                n_of ctx "read_contended" );
            ]
          @
          (* Traced window only: the replay gives the in-process time. *)
          if Meter.count "controller.op.stats" = 0 then []
          else
            [
              ( "service.read_wait_ms",
                (S.mean (samples ctx "stats_contended") -. Meter.per_item "controller.op.stats")
                *. 1e3,
                "ms",
                n_of ctx "stats_contended" );
            ]);
      teardown;
    }

let workload = { name = "ipbmd_tenants"; generate }
