(* Measurement primitives shared by every workload: sample buffers with
   quantiles, and the span recorder behind the traced run.

   Spans are recorded only from this benchmark's own files, around its
   calls into the libraries. Each span closes into a per-name aggregate
   (count, items, total time, self time, durations for the median), so
   the per-layer summary never depends on how many spans fit in memory.
   When a span file is requested, the raw spans additionally go into a
   preallocated buffer that is written out once, at exit. *)

(* Seconds on the monotonic clock, at nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* --- samples -------------------------------------------------------------- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }
  let clear t = t.n <- 0
  let count t = t.n

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  let mean t = if t.n = 0 then nan else sum t /. float_of_int t.n

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s

  (* Linear interpolation between closest ranks; [nan] when empty. *)
  let quantile_sorted s q =
    let n = Array.length s in
    if n = 0 then nan
    else begin
      let pos = q *. float_of_int (n - 1) in
      let lo = truncate pos in
      let hi = min (n - 1) (lo + 1) in
      s.(lo) +. ((pos -. float_of_int lo) *. (s.(hi) -. s.(lo)))
    end

  let quantile t q = quantile_sorted (sorted t) q

  (* The highest of p99.9/p99/p90 that still has at least ten samples
     above it, as (label, value); [None] below 100 samples. *)
  let tail t =
    let s = sorted t in
    let n = Array.length s in
    List.find_map
      (fun (label, q) ->
        if float_of_int n *. (1.0 -. q) >= 10.0 then Some (label, quantile_sorted s q)
        else None)
      [ ("p99.9", 0.999); ("p99", 0.99); ("p90", 0.9) ]
end

(* --- spans ---------------------------------------------------------------- *)

type agg = {
  a_name : string;
  mutable a_count : int;
  mutable a_items : int; (* work units (packets, keys, commands) inside *)
  mutable a_total : float; (* seconds *)
  mutable a_self : float; (* seconds not covered by child spans *)
  a_durs : Samples.t;
}

let enabled = ref false
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 64

(* The op id spans are tagged with: the round number, -1 during set-up. *)
let op = ref 0

(* Open-span stack: aggregate, start time, child time so far, buffer slot. *)
let max_depth = 32
let st_agg = Array.make max_depth None
let st_start = Array.make max_depth 0.0
let st_child = Array.make max_depth 0.0
let st_slot = Array.make max_depth (-1)
let depth = ref 0

(* The raw span buffer: allocated only when a span file is requested. *)
type buffer = {
  b_name : string array;
  b_start : float array;
  b_end : float array;
  b_parent : int array;
  b_op : int array;
  mutable b_len : int;
  mutable b_dropped : int;
}

let buffer : buffer option ref = ref None

let enable ~buffer_spans =
  enabled := true;
  if buffer_spans > 0 then
    buffer :=
      Some
        {
          b_name = Array.make buffer_spans "";
          b_start = Array.make buffer_spans 0.0;
          b_end = Array.make buffer_spans 0.0;
          b_parent = Array.make buffer_spans (-1);
          b_op = Array.make buffer_spans 0;
          b_len = 0;
          b_dropped = 0;
        }

let agg_of name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a
  | None ->
    let a =
      {
        a_name = name;
        a_count = 0;
        a_items = 0;
        a_total = 0.0;
        a_self = 0.0;
        a_durs = Samples.create ();
      }
    in
    Hashtbl.replace aggs name a;
    a

let open_span name =
  let d = !depth in
  if d >= max_depth then invalid_arg "Meter.span: nesting too deep";
  st_agg.(d) <- Some (agg_of name);
  st_child.(d) <- 0.0;
  st_slot.(d) <-
    (match !buffer with
    | Some b when b.b_len < Array.length b.b_name ->
      let i = b.b_len in
      b.b_len <- i + 1;
      b.b_name.(i) <- name;
      b.b_parent.(i) <- (if d > 0 then st_slot.(d - 1) else -1);
      b.b_op.(i) <- !op;
      i
    | Some b ->
      b.b_dropped <- b.b_dropped + 1;
      -1
    | None -> -1);
  depth := d + 1;
  st_start.(d) <- now ()

let close_span items =
  let t1 = now () in
  let d = !depth - 1 in
  depth := d;
  let dur = t1 -. st_start.(d) in
  (match st_agg.(d) with
  | Some a ->
    a.a_count <- a.a_count + 1;
    a.a_items <- a.a_items + items;
    a.a_total <- a.a_total +. dur;
    a.a_self <- a.a_self +. (dur -. st_child.(d));
    Samples.add a.a_durs dur
  | None -> ());
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) +. dur;
  match !buffer with
  | Some b when st_slot.(d) >= 0 ->
    b.b_start.(st_slot.(d)) <- st_start.(d);
    b.b_end.(st_slot.(d)) <- t1
  | _ -> ()

(* [span name f] times [f] as one span when tracing is on; [items] is the
   number of work units it covers, for per-item costs. Untraced, it is a
   plain call. *)
let span ?(items = 1) name f =
  if not !enabled then f ()
  else begin
    open_span name;
    match f () with
    | r ->
      close_span items;
      r
    | exception e ->
      close_span items;
      raise e
  end

let find name = Hashtbl.find_opt aggs name

(* Per-item cost of a span name, in seconds; [nan] when it never ran. *)
let per_item name =
  match find name with
  | Some a when a.a_items > 0 -> a.a_total /. float_of_int a.a_items
  | _ -> nan

let total name = match find name with Some a -> a.a_total | None -> 0.0
let count name = match find name with Some a -> a.a_count | None -> 0

let reset_aggs () = Hashtbl.reset aggs

(* Per-name summary rows: name, count, total, self, p50 (seconds). *)
let summary () =
  Hashtbl.fold (fun _ a acc -> a :: acc) aggs []
  |> List.sort (fun a b -> compare a.a_name b.a_name)
  |> List.map (fun a ->
         (a.a_name, a.a_count, a.a_total, a.a_self, Samples.quantile a.a_durs 0.5))

(* One span per line: name, start and end (µs since the first span),
   parent line (-1 for a root) and op id. *)
let write_spans path =
  match !buffer with
  | None -> ()
  | Some b ->
    let oc = open_out path in
    let t0 = if b.b_len > 0 then b.b_start.(0) else 0.0 in
    Printf.fprintf oc "# name start_us end_us parent op (%d spans, %d dropped)\n" b.b_len
      b.b_dropped;
    for i = 0 to b.b_len - 1 do
      Printf.fprintf oc "%s %.3f %.3f %d %d\n" b.b_name.(i)
        ((b.b_start.(i) -. t0) *. 1e6)
        ((b.b_end.(i) -. t0) *. 1e6)
        b.b_parent.(i) b.b_op.(i)
    done;
    close_out oc

(* --- allocation ----------------------------------------------------------- *)

let minor_words () = (Gc.quick_stat ()).Gc.minor_words
