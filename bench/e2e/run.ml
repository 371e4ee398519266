(* The repository benchmark: four workloads measured end to end through
   the libraries' public entry points, plus a traced run for per-layer
   costs.

     run.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
             [--trace-file PREFIX] [--json FILE]
     run.exe compare A.jsonl B.jsonl [--bench BENCHMARK.json]

   Without --workload all four run. A run generates its inputs from the
   seed, sets up [setup_runs] times ([setup_s] is the median), warms up
   for a second and measures whole rounds for S seconds. With --trace 1
   it then sets up once more with spans on and measures a second, traced
   window. The last line of standard output is one JSON object holding
   the end-to-end metrics, or with --trace 1 the per-layer ones. *)

open Common
module J = Prelude.Json

let workloads = [ Fwd.workload; Fib.workload; Insitu.workload; Tenants.workload ]
let setup_runs = 5
let warmup_s = 1.0

(* --- metrics --------------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string; m_n : int; m_note : string }

let metric ?(note = "") m_name m_unit m_n m_value = { m_name; m_value; m_unit; m_n; m_note = note }

(* A window's end-to-end metrics. *)
let end_to_end ctx ~setups =
  let rounds = ctx.rounds in
  let note =
    match S.tail rounds with
    | Some (label, v) -> Printf.sprintf "%s %.6g ms" label (v *. 1e3)
    | None -> ""
  in
  [
    metric "setup_s" "s" (S.count setups) (S.quantile setups 0.5);
    metric ~note "round_ms" "ms" (S.count rounds) (S.quantile rounds 0.5 *. 1e3);
    metric "ops_per_s" "1/s" ctx.ops (float_of_int ctx.ops /. ctx.op_time);
  ]

(* The per-layer metrics every workload reports from its traced window:
   the spans each is read from and the scale from seconds per item. *)
let layers =
  [
    ("net.packet_create_ns", [ "net.packet_create" ], "ns", 1e9);
    ("ipsa.inject_batch_ns", [ "ipsa.inject_batch" ], "ns", 1e9);
    ("ipsa.collect_ns", [ "ipsa.collect_all" ], "ns", 1e9);
    ("ipsa.inject_ns", [ "ipsa.inject" ], "ns", 1e9);
    ("table.exact_apply_ns", [ "table.exact_apply" ], "ns", 1e9);
    ("table.lpm_apply_ns", [ "table.lpm_apply" ], "ns", 1e9);
    ("net.lpm_lookup_ns", [ "net.lpm_lookup" ], "ns", 1e9);
    ("rp4.parse_us", [ "rp4.parse" ], "us", 1e6);
    ("rp4bc.compile_full_ms", [ "rp4bc.compile_full" ], "ms", 1e3);
    ("controller.boot_ms", [ "controller.boot" ], "ms", 1e3);
    ("controller.population_ms", [ "controller.population" ], "ms", 1e3);
    ("controller.table_write_us", [ "controller.table_add"; "controller.table_del" ], "us", 1e6);
  ]

let layer_metrics ~minor_words_per_op =
  List.map
    (fun (name, spans, unit_, scale) ->
      let items, total =
        List.fold_left
          (fun (n, t) s ->
            match Meter.find s with
            | Some a -> (n + a.Meter.a_items, t +. a.Meter.a_total)
            | None -> (n, t))
          (0, 0.0) spans
      in
      metric name unit_ items (total /. float_of_int items *. scale))
    layers
  @ [ metric "gc.minor_words_per_op" "words" 1 minor_words_per_op ]

(* Derived per-layer numbers that only some workloads have. *)
let derived_layers () =
  let t = Meter.total and c = Meter.count in
  (if c "controller.prepare" > 0 && c "rp4bc.insert_function" > 0 then
     [
       metric "controller.prepare_self_ms" "ms" (c "controller.prepare")
         ((t "controller.prepare" -. t "rp4bc.insert_function" -. t "analysis.impact")
         /. float_of_int (c "controller.prepare")
         *. 1e3);
     ]
   else [])
  @
  if c "table.insert" > 0 then
    [
      metric "table.insert_us" "us" (c "table.insert") (Meter.per_item "table.insert" *. 1e6);
      metric "table.delete_us" "us" (c "table.delete") (Meter.per_item "table.delete" *. 1e6);
    ]
  else []

(* --- one run ----------------------------------------------------------------- *)

type window = { w_ctx : ctx; w_e2e : metric list; w_diag : line list; w_words : float }

(* Warm up untraced, then measure whole rounds for [seconds], with spans
   on when [traced]. *)
let measure inst ~seconds ~setups ~traced =
  let ctx = create_ctx () in
  Meter.enabled := false;
  ctx.deadline <- Meter.now () +. Float.min warmup_s seconds;
  inst.run ctx;
  reset ctx;
  Meter.enabled := traced;
  let words0 = Meter.minor_words () in
  ctx.deadline <- Meter.now () +. seconds;
  inst.run ctx;
  Meter.enabled := false;
  let words = (Meter.minor_words () -. words0) /. float_of_int (max 1 ctx.ops) in
  { w_ctx = ctx; w_e2e = end_to_end ctx ~setups; w_diag = inst.diagnostics ctx; w_words = words }

let run_workload w ~seed ~seconds ~trace ~span_buffer =
  let setup = w.generate ~seed in
  let setups = S.create () in
  let inst = ref None in
  let teardown () =
    Option.iter (fun i -> i.teardown ()) !inst;
    inst := None
  in
  let timed_setup () =
    teardown ();
    let t0 = Meter.now () in
    let i = setup () in
    inst := Some i;
    (i, Meter.now () -. t0)
  in
  Fun.protect ~finally:teardown (fun () ->
      for _ = 1 to setup_runs do
        S.add setups (snd (timed_setup ()))
      done;
      let plain = measure (Option.get !inst) ~seconds ~setups ~traced:false in
      let traced =
        if not trace then None
        else begin
          (* A fresh set-up with spans on, so boot and population are
             traced on every workload. *)
          Meter.reset_aggs ();
          Meter.enable ~buffer_spans:span_buffer;
          Meter.op := -1;
          let i, _ = timed_setup () in
          Some (measure i ~seconds ~setups ~traced:true)
        end
      in
      (setups, plain, traced))

(* --- output ------------------------------------------------------------------ *)

let nproc = Domain.recommended_domain_count ()

let print_metric m =
  Printf.printf "  %-34s %14.6g %-7s n=%d%s\n" m.m_name m.m_value m.m_unit m.m_n
    (if m.m_note = "" then "" else ", " ^ m.m_note)

let of_line (name, v, u, n) = metric name u n v
let print_lines lines = List.iter (fun l -> print_metric (of_line l)) lines

(* JSON has no NaN: an unmeasured value is [null], and it fails the run
   when it is one of the reported metrics. *)
let metrics_json ?(with_n = false) ms =
  J.Obj
    (List.map
       (fun m ->
         ( m.m_name,
           J.Obj
             ([
                ("value", if Float.is_finite m.m_value then J.Float m.m_value else J.Null);
                ("unit", J.String m.m_unit);
              ]
             @ if with_n then [ ("n", J.Int m.m_n) ] else []) ))
       ms)

let report w ~seed ~seconds ~json (setups, plain, traced) =
  let ctx = plain.w_ctx in
  Printf.printf "# %s: seed %d, %g s, profile %s, OCaml %s, nproc %d\n" w.name seed seconds
    Build_info.profile Sys.ocaml_version nproc;
  Printf.printf "end-to-end (untraced window):\n";
  List.iter print_metric plain.w_e2e;
  Printf.printf "diagnostics:\n";
  print_lines plain.w_diag;
  print_metric (metric "gc.minor_words_per_op" "words" ctx.ops plain.w_words);
  Printf.printf "  set-up runs (s): %s\n"
    (String.concat " " (List.init (S.count setups) (fun i -> Printf.sprintf "%.4f" setups.S.a.(i))));
  let layer_ms =
    match traced with
    | None -> []
    | Some t ->
      Printf.printf "traced window, end-to-end and overhead vs untraced:\n";
      List.iter2
        (fun u m ->
          if m.m_name <> "setup_s" then
            Printf.printf "  %-34s %14.6g %-7s (%+.1f%%)\n" m.m_name m.m_value m.m_unit
              (100.0 *. (m.m_value -. u.m_value) /. u.m_value))
        plain.w_e2e t.w_e2e;
      let only_traced =
        List.filter_map
          (fun ((name, v, u, _) as line) ->
            match List.find_opt (fun (n, _, _, _) -> n = name) plain.w_diag with
            | Some (_, pv, _, _) ->
              if name = "fwd_mpps" || name = "rpc_per_s" then
                Printf.printf "  %-34s %14.6g %-7s (%+.1f%%)\n" name v u (100.0 *. (v -. pv) /. pv);
              None
            | None -> Some line)
          t.w_diag
      in
      let ms = layer_metrics ~minor_words_per_op:plain.w_words in
      Printf.printf "per-layer (traced window):\n";
      List.iter print_metric (ms @ derived_layers ());
      print_lines only_traced;
      Printf.printf "spans: name, count, total ms, self ms, p50 us\n";
      List.iter
        (fun (name, n, total, self, p50) ->
          Printf.printf "  %-34s %8d %12.3f %12.3f %12.3f\n" name n (total *. 1e3) (self *. 1e3)
            (p50 *. 1e6))
        (Meter.summary ());
      ms
  in
  let windows = plain :: Option.to_list traced in
  let attempted = List.fold_left (fun a t -> a + t.w_ctx.ops) 0 windows in
  let failed = List.fold_left (fun a t -> a + t.w_ctx.failed) 0 windows in
  let reported = if traced = None then plain.w_e2e else layer_ms in
  let unmeasured = List.filter (fun m -> not (Float.is_finite m.m_value)) reported in
  let correct =
    List.for_all (fun t -> not t.w_ctx.ever_failed) windows && unmeasured = []
  in
  List.iter
    (fun t -> List.iter (fun m -> Printf.eprintf "FAILED (%s): %s\n" w.name m) t.w_ctx.messages)
    windows;
  List.iter (fun m -> Printf.eprintf "FAILED (%s): %s not measured\n" w.name m.m_name) unmeasured;
  (match json with
  | None -> ()
  | Some path ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    output_string oc
      (J.to_string
         (J.Obj
            [
              ("workload", J.String w.name);
              ("seed", J.Int seed);
              ("seconds", J.Float seconds);
              ("profile", J.String Build_info.profile);
              ("ocaml", J.String Sys.ocaml_version);
              ("nproc", J.Int nproc);
              ("correct", J.Bool correct);
              ("attempted", J.Int attempted);
              ("failed", J.Int failed);
              ("metrics", metrics_json ~with_n:true plain.w_e2e);
              ("diagnostics", metrics_json ~with_n:true (List.map of_line plain.w_diag));
              ("layers", metrics_json ~with_n:true layer_ms);
            ]));
    output_char oc '\n';
    close_out oc);
  let result =
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ("metrics", metrics_json reported);
      ]
  in
  (correct, result)

(* --- compare ------------------------------------------------------------------- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l when String.trim l = "" -> go acc
    | l -> go (J.of_string l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Quartiles as Python's [statistics.quantiles(values, n=4)] computes
   them (the exclusive method), which is how spreads are judged. *)
let quartiles values =
  let d = Array.of_list (List.sort Float.compare values) in
  let n = Array.length d in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (d.(0), d.(0), d.(0))
  else begin
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

let compare_runs a_path b_path bench_path =
  let bench = J.of_string (read_file bench_path) in
  let e2e = J.member_exn "end_to_end" bench |> J.to_list in
  let a = read_lines a_path and b = read_lines b_path in
  let values runs wl name =
    List.filter_map
      (fun r ->
        if J.to_str (J.member_exn "workload" r) <> wl then None
        else
          match Option.bind (J.member name (J.member_exn "metrics" r)) (J.member "value") with
          | Some (J.Float v) -> Some v
          | Some (J.Int v) -> Some (float_of_int v)
          | _ -> None)
      runs
  in
  let failures runs = List.fold_left (fun acc r -> acc + J.to_int (J.member_exn "failed" r)) 0 runs in
  Printf.printf "failed ops: A %d, B %d\n" (failures a) (failures b);
  let worst = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          let name = J.to_str (J.member_exn "name" m) in
          let lower = J.to_str (J.member_exn "better" m) = "lower" in
          let bound = J.to_float (J.member_exn "bound" m) in
          let va = values a w.name name and vb = values b w.name name in
          if va <> [] && vb <> [] then begin
            let qa1, ma, qa3 = quartiles va and qb1, mb, qb3 = quartiles vb in
            let better x y = if lower then x < y else x > y in
            let n = min (List.length va) (List.length vb) in
            let take l = List.filteri (fun i _ -> i < n) l in
            let pairs = List.combine (take va) (take vb) in
            let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
            let share = float_of_int wins /. float_of_int n in
            let change = (mb -. ma) /. ma in
            let worse = if lower then change else -.change in
            let spread = Float.max ((qa3 -. qa1) /. ma) ((qb3 -. qb1) /. mb) in
            let all_b_better = List.for_all (fun y -> List.for_all (better y) va) vb in
            let verdict =
              if spread > bound then if all_b_better then "improved" else "unresolved"
              else if worse > bound then "regressed"
              else if share >= 0.9 && worse < 0.0 && Float.abs (mb -. ma) > qa3 -. qa1 then "improved"
              else "unchanged"
            in
            if verdict = "regressed" || verdict = "unresolved" then worst := 1;
            Printf.printf
              "%-14s %-10s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g]  B better in %.0f%% of pairs  \
               %+.1f%% (bound %.0f%%)  %s\n"
              w.name name ma qa1 qa3 mb qb1 qb3 (100.0 *. share) (100.0 *. change) (100.0 *. bound)
              verdict
          end)
        e2e)
    workloads;
  !worst

(* --- command line -------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: run.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] \
     [--trace-file PREFIX] [--json FILE]\n\
    \       run.exe compare A.jsonl B.jsonl [--bench BENCHMARK.json]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | "compare" :: a :: b :: rest ->
    let bench = match rest with [ "--bench"; p ] -> p | [] -> "BENCHMARK.json" | _ -> usage () in
    exit (compare_runs a b bench)
  | _ ->
    let selected = ref [] and seed = ref 1 and seconds = ref 20.0 and trace = ref false in
    let trace_file = ref None and json = ref None in
    let rec parse = function
      | [] -> ()
      | "--workload" :: n :: rest ->
        (match List.find_opt (fun w -> w.name = n) workloads with
        | Some w -> selected := !selected @ [ w ]
        | None ->
          Printf.eprintf "unknown workload %S (have %s)\n" n
            (String.concat ", " (List.map (fun w -> w.name) workloads));
          exit 2);
        parse rest
      | "--seed" :: n :: rest ->
        seed := int_of_string n;
        parse rest
      | "--seconds" :: s :: rest ->
        seconds := float_of_string s;
        parse rest
      | "--trace" :: v :: rest ->
        trace := v = "1";
        parse rest
      | "--trace-file" :: p :: rest ->
        trace_file := Some p;
        parse rest
      | "--json" :: p :: rest ->
        json := Some p;
        parse rest
      | _ -> usage ()
    in
    (try parse args with Failure _ -> usage ());
    if Build_info.profile <> "release" then
      Printf.eprintf
        "WARNING: built in the %S profile; numbers are only comparable from \
         `dune exec --profile release`.\n%!"
        Build_info.profile;
    let selected = if !selected = [] then workloads else !selected in
    let span_buffer = if !trace_file = None then 0 else 1 lsl 18 in
    let all_ok =
      List.fold_left
        (fun ok w ->
          let outcome =
            run_workload w ~seed:!seed ~seconds:!seconds ~trace:!trace ~span_buffer
          in
          Option.iter (fun p -> Meter.write_spans (Printf.sprintf "%s.%s.spans" p w.name)) !trace_file;
          let correct, result = report w ~seed:!seed ~seconds:!seconds ~json:!json outcome in
          print_endline (J.to_string result);
          ok && correct)
        true selected
    in
    exit (if all_ok then 0 else 1)
