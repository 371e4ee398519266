(* Unified match-action table: the authority layer over [Engine].

   One table = a key spec (ordered fields with match kinds), a bounded set
   of entries, and a default action. All match *resolution* — physical
   index selection (exact hash / LPM trie / TCAM / hash-bucket), the
   int-keyed flat view used by the compiled paths, and the optional
   Synapse-style virtualization tier — lives in [Engine]; this module
   keeps authority over *contents*: it validates matches against the
   declared spec, enforces the declared capacity, and owns the public
   entry/default/stats surface the rest of the system programs against.

   The index is chosen from the field kinds:

   - all exact                  -> hash index on the concatenated key
   - one lpm (+ exacts)         -> LPM trie (exact bits form the top of the prefix)
   - any ternary / several lpm  -> TCAM (priority list)
   - any hash                   -> hash-bucket selection: exact fields must
                                   match, then one of the surviving entries
                                   is picked by flow hash (the rP4 [hash]
                                   match kind used by the ECMP use case,
                                   Fig. 5(a) of the paper)

   A generic entry list remains the source of truth so entries can be
   enumerated (table migration, PISA full repopulation) regardless of the
   index. Entries carry hit counters, which the event-triggered flow
   probe use case reads.

   A *virtualized* table is declared larger than its in-pool residency:
   [virtualize ~capacity] caps the engine's hot tier at [capacity]
   resolutions while the full contents stay in the authoritative index
   (conceptually controller-side). Lookups that miss the hot set incur a
   modeled penalty ([tier_missed] is observable after each [lookup]/
   [apply]) before escalating; [pin] protects prefixes from eviction. *)

(* This file doubles as the library's root module (it shares the library
   name), so the sibling modules are re-exported here. *)
module Key = Key
module Tcam = Tcam
module Engine = Engine

type spec = {
  name : string;
  fields : Key.field list;
  size : int; (* declared capacity in entries *)
}

type entry = Engine.entry = {
  matches : Key.fmatch list;
  action : string;
  args : Net.Bits.t list;
  priority : int;
  mutable hits : int;
}

type t = { spec : spec; eng : Engine.t }

let spec t = t.spec
let name t = t.spec.name
let key_width t = Key.total_width t.spec.fields
let entry_count t = List.length t.eng.Engine.entries
let capacity t = t.spec.size
let entries t = List.rev t.eng.Engine.entries
let stats t = (t.eng.Engine.lookups, t.eng.Engine.hits)
let generation t = t.eng.Engine.generation
let engine t = t.eng

let create spec =
  if spec.size <= 0 then invalid_arg "Table.create: size must be positive";
  if spec.fields = [] then invalid_arg "Table.create: empty key";
  { spec; eng = Engine.create ~name:spec.name spec.fields }

let set_default t action args = Engine.set_default t.eng action args
let default t = t.eng.Engine.default

(* --- mutation --------------------------------------------------------- *)

exception Full of string

let insert t ?(priority = 0) ~matches ~action ~args () =
  Key.check_matches t.spec.fields matches;
  if List.length t.eng.Engine.entries >= t.spec.size then raise (Full t.spec.name);
  Engine.insert t.eng ~priority ~matches ~action ~args

(* Bulk population: one validation pass, one capacity check, one engine
   generation bump — O(rows) where repeated [insert] is O(rows²). Rows
   are (matches, action, args) at priority 0, applied in order (later
   rows replace earlier ones on the same match key). The capacity check
   counts incoming rows without netting out replacements, so it is
   conservatively stricter than repeated [insert]. *)
let load t rows =
  List.iter (fun (matches, _, _) -> Key.check_matches t.spec.fields matches) rows;
  if List.length t.eng.Engine.entries + List.length rows > t.spec.size then
    raise (Full t.spec.name);
  Engine.bulk_insert t.eng
    (List.map (fun (matches, action, args) -> (0, matches, action, args)) rows)

let delete t matches = Engine.remove t.eng matches
let clear t = Engine.reset t.eng

(* The authoritative LPM trie behind this table's index, when its key
   resolves through one ([Net.Lpm] raw-byte keys: exact fields first,
   the lpm field last). *)
let lpm_trie t = Engine.lpm_index t.eng

(* --- lookup ----------------------------------------------------------- *)

let check_key t values =
  if List.length values <> List.length t.spec.fields then
    invalid_arg
      (Printf.sprintf "Table.lookup(%s): %d key values for %d fields" t.spec.name
         (List.length values)
         (List.length t.spec.fields));
  List.iter2
    (fun f v ->
      if Net.Bits.width v <> f.Key.kf_width then
        invalid_arg
          (Printf.sprintf "Table.lookup(%s): field %s width %d, got %d" t.spec.name
             f.Key.kf_ref f.Key.kf_width (Net.Bits.width v)))
    t.spec.fields values

let lookup t values =
  check_key t values;
  Engine.lookup t.eng values

(* Did the last [lookup]/[apply] on this table miss the virtualization
   tier's hot set? (Always false on non-virtualized tables.) Execution
   paths read this to charge the modeled escalation penalty. *)
let tier_missed t = t.eng.Engine.tier_missed

(* Lookup falling back to the default action on miss. Returns the action
   name, arguments, hit flag, and entry hit count (0 on default). *)
type outcome = {
  o_action : string;
  o_args : Net.Bits.t list;
  o_hit : bool;
  o_hits : int;
  o_tier_miss : bool;
}

let apply t values =
  match lookup t values with
  | Some e ->
    Some
      {
        o_action = e.action;
        o_args = e.args;
        o_hit = true;
        o_hits = e.hits;
        o_tier_miss = t.eng.Engine.tier_missed;
      }
  | None -> (
    match t.eng.Engine.default with
    | Some (action, args) ->
      Some
        {
          o_action = action;
          o_args = args;
          o_hit = false;
          o_hits = 0;
          o_tier_miss = t.eng.Engine.tier_missed;
        }
    | None -> None)

(* --- virtualization --------------------------------------------------- *)

let virtualize t ~capacity = Engine.virtualize t.eng ~capacity
let devirtualize t = Engine.devirtualize t.eng
let virtualized t = Engine.virtualized t.eng

(* Pin a prefix on the named key field so eviction never drops its
   resolutions. Returns false when the table is not virtualized or the
   field is not part of the key. *)
let pin t ~field ~bits ~plen =
  let rec idx_of i = function
    | [] -> None
    | f :: _ when f.Key.kf_ref = field -> Some i
    | _ :: rest -> idx_of (i + 1) rest
  in
  match idx_of 0 t.spec.fields with
  | None -> false
  | Some idx -> Engine.pin t.eng ~idx ~bits ~plen

type tier_stats = Engine.tier_stats = {
  ts_capacity : int;
  ts_resident : int;
  ts_pinned : int;
  ts_hits : int;
  ts_misses : int;
  ts_promotions : int;
  ts_evictions : int;
  ts_pin_blocked : int;
}

let tier_stats t = Engine.tier_stats t.eng
