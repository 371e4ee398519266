(* The unified match-resolution engine.

   One [Engine.t] holds everything needed to *resolve* a key against a
   table's contents, independently of which execution path asks:

   - the physical index chosen from the key's match kinds (exact hash
     map, LPM trie, TCAM priority list, or hash-bucket selection over
     the entry list), probed by the boxed [lookup] used by the string
     interpreter;
   - the int-keyed *flat view* — the per-entry patterns ([ffm]/[fment])
     and caches previously private to [Ipsa.Flat] — rebuilt lazily when
     the generation moves and used by the flat fast path, so both
     execution paths resolve through the same engine;
   - the optional virtualization [tier]: a Synapse-style hot set of
     recently used *resolutions* keyed by the full concatenated key,
     with LRU eviction, prefix pinning, and hit/miss/promotion
     accounting. The authoritative index always holds the full declared
     contents (it lives controller-side conceptually); the hot tier is
     what the in-pool residency can afford.

   The hot tier caches resolutions, not entries: a hit returns exactly
   what a full lookup on the same key would have returned, so a
   partially resident LPM table can never hit a short resident prefix
   while a longer match exists only cold, and hash-bucket (ECMP)
   selection is computed over the full member set before the result is
   cached. Tier movement (promote/evict/touch) never bumps the logical
   [generation]; content mutations do, and also flush the hot set.

   [Table.t] wraps one engine and keeps authority over contents: all
   mutations flow through [Table.insert]/[delete]/[clear], which
   validate against the declared spec before delegating here. *)

module B = Net.Bits
module Bf = Net.Bitfield

type entry = {
  matches : Key.fmatch list;
  action : string;
  args : B.t list;
  priority : int;
  mutable hits : int;
}

type index =
  | I_exact of (string, entry) Hashtbl.t
  | I_lpm of entry Net.Lpm.t (* path-compressed, raw-byte keys *)
  | I_tcam of entry Tcam.t
  | I_hash (* resolved over the entry list at lookup time *)

(* --- int-keyed flat view --------------------------------------------- *)

(* Per-field entry pattern for scan/hash views: masked equality, narrow
   as ints, wide as left-aligned byte patterns compared in place. *)
type ffm =
  | FF_any
  | FF_narrow of { fv : int; fmask : int }
  | FF_wide of { vpat : Bytes.t; mpat : Bytes.t; fw : int }

type fentry = {
  fe_src : entry; (* hit counters flow back to the real entry *)
  fe_tag : int;
  fe_args : int array;
}

type fment = { fm_fields : ffm array; fm_fe : fentry }

type vkind =
  | V_exact of (string, fentry) Hashtbl.t (* same raw keys as the index *)
  | V_scan of fment array (* ordered: first match wins *)
  | V_hash of fment array * int array (* entries + candidate scratch *)

type view = {
  v_gen : int; (* [generation] the view was built at *)
  v_kind : vkind;
  v_def_present : bool;
  v_def_tag : int;
}

(* --- virtualization tier --------------------------------------------- *)

(* A cached resolution on the hot tier's intrusive LRU ring. *)
type resolution = {
  r_key : string; (* full concatenated key, raw bytes *)
  r_fe : fentry;
  mutable r_pinned : bool;
  mutable r_prev : resolution;
  mutable r_next : resolution;
}

type tier = {
  mutable tr_capacity : int; (* resident resolution slots *)
  tr_hot : (string, resolution) Hashtbl.t;
  tr_ring : resolution; (* sentinel: next = MRU, prev = LRU *)
  mutable tr_count : int;
  mutable tr_pins : (int * B.t * int) list; (* field index, bits, plen *)
  mutable tr_hits : int;
  mutable tr_misses : int;
  mutable tr_promotions : int;
  mutable tr_evictions : int;
  mutable tr_pin_blocked : int; (* promotions skipped: all residents pinned *)
}

type t = {
  e_name : string;
  e_fields : Key.field list;
  index : index;
  mutable entries : entry list; (* newest first *)
  mutable default : (string * B.t list) option;
  mutable lookups : int;
  mutable hits : int;
  (* Bumped on every content mutation (insert/delete/clear/set_default,
     and virtualize/devirtualize) so derived structures — the flat view
     here, [Ipsa.Flat]'s per-table caches — detect staleness with one int
     compare. Entry hit counters and tier movement do not bump. *)
  mutable generation : int;
  mutable view : view option; (* rebuilt lazily when [v_gen] drifts *)
  mutable tier : tier option;
  mutable tier_missed : bool; (* did the last [lookup] miss the hot set? *)
}

let choose_index fields =
  let kinds = List.map (fun f -> f.Key.kf_kind) fields in
  let count k = List.length (List.filter (( = ) k) kinds) in
  if count Key.Hash > 0 then I_hash
  else if count Key.Ternary > 0 || count Key.Lpm > 1 then I_tcam (Tcam.create ())
  else if count Key.Lpm = 1 then I_lpm (Net.Lpm.create ~width:(Key.total_width fields))
  else I_exact (Hashtbl.create 64)

let create ~name fields =
  {
    e_name = name;
    e_fields = fields;
    index = choose_index fields;
    entries = [];
    default = None;
    lookups = 0;
    hits = 0;
    generation = 0;
    view = None;
    tier = None;
    tier_missed = false;
  }

let name t = t.e_name
let fields t = t.e_fields
let virtualized t = t.tier <> None

(* --- key construction ------------------------------------------------- *)

(* Concatenated key (raw bytes) over all fields: the exact-index key, and
   the hot tier's resolution key for every index kind. *)
let exact_key_of_values values =
  String.concat "" (List.map B.to_raw_string values)

let exact_key_of_matches matches =
  String.concat ""
    (List.map
       (function
         | Key.M_exact v -> B.to_raw_string v
         | _ -> invalid_arg "Engine: exact index requires exact matches")
       matches)

(* For the LPM index: exact fields first, the single LPM field last, so a
   single prefix covers all exact bits plus the route prefix. *)
let lpm_parts fields matches =
  let exacts = ref [] and lpm = ref None in
  List.iter2
    (fun f m ->
      match (f.Key.kf_kind, m) with
      | Key.Lpm, Key.M_lpm (v, plen) -> lpm := Some (v, plen)
      | Key.Lpm, Key.M_exact v -> lpm := Some (v, f.Key.kf_width)
      | _, Key.M_exact v -> exacts := v :: !exacts
      | _ -> invalid_arg "Engine: lpm index requires exact/lpm matches")
    fields matches;
  match !lpm with
  | None -> invalid_arg "Engine: lpm index entry lacks the lpm field"
  | Some (v, plen) ->
    let exact_bits = B.concat_list (List.rev !exacts) in
    (B.concat exact_bits v, B.width exact_bits + plen)

let lpm_key fields values =
  let exacts = ref [] and lpm = ref None in
  List.iter2
    (fun f v ->
      match f.Key.kf_kind with
      | Key.Lpm -> lpm := Some v
      | _ -> exacts := v :: !exacts)
    fields values;
  match !lpm with
  | None -> invalid_arg "Engine: lpm index key lacks the lpm field"
  | Some v -> B.concat (B.concat_list (List.rev !exacts)) v

(* Left-aligned byte pattern of a [Bits.t] (bit 0 of the value at the MSB
   of byte 0): the form [wide_masked_eq] compares against packet bytes,
   and the key form [Net.Lpm] takes. *)
let pattern_of v =
  let w = B.width v in
  let b = Bytes.make ((w + 7) / 8) '\000' in
  for k = 0 to w - 1 do
    if B.get_bit v k then begin
      let idx = k lsr 3 in
      Bytes.set b idx (Char.chr (Char.code (Bytes.get b idx) lor (0x80 lsr (k land 7))))
    end
  done;
  b

(* Raw trie key of a [Bits.t]. Right-aligned storage coincides with the
   left-aligned form on whole-byte widths (the hot FIB case); odd widths
   go through the bit-by-bit pattern builder. *)
let lpm_raw v =
  if B.width v land 7 = 0 then B.to_raw_string v
  else Bytes.unsafe_to_string (pattern_of v)

(* For the TCAM index: value/mask over the concatenated key. *)
let tcam_parts fields matches =
  let values = ref [] and masks = ref [] in
  List.iter2
    (fun f m ->
      let w = f.Key.kf_width in
      let v, mask =
        match m with
        | Key.M_exact v -> (v, B.ones w)
        | Key.M_lpm (v, plen) -> (v, B.init w (fun i -> i < plen))
        | Key.M_ternary (v, mask) -> (v, mask)
        | Key.M_any -> (B.zero w, B.zero w)
      in
      values := v :: !values;
      masks := mask :: !masks)
    fields matches;
  (B.concat_list (List.rev !values), B.concat_list (List.rev !masks))

(* --- tier internals ---------------------------------------------------- *)

let dummy_entry =
  { matches = []; action = ""; args = []; priority = 0; hits = 0 }

let dummy_fentry = { fe_src = dummy_entry; fe_tag = 0; fe_args = [||] }

let new_ring () =
  let rec s =
    { r_key = ""; r_fe = dummy_fentry; r_pinned = false; r_prev = s; r_next = s }
  in
  s

let ring_unlink r =
  r.r_prev.r_next <- r.r_next;
  r.r_next.r_prev <- r.r_prev;
  r.r_prev <- r;
  r.r_next <- r

let ring_push_mru ring r =
  r.r_next <- ring.r_next;
  r.r_prev <- ring;
  ring.r_next.r_prev <- r;
  ring.r_next <- r

(* LRU touch on a hot hit: pure pointer surgery, no allocation. *)
let tier_touch tr r =
  tr.tr_hits <- tr.tr_hits + 1;
  if tr.tr_ring.r_next != r then begin
    ring_unlink r;
    ring_push_mru tr.tr_ring r
  end

let tier_flush tr =
  Hashtbl.reset tr.tr_hot;
  let ring = tr.tr_ring in
  ring.r_prev <- ring;
  ring.r_next <- ring;
  tr.tr_count <- 0

(* Does [m] (an entry's match on field [idx]) fall inside a pinned
   prefix? Wildcard-ish matches are pinned conservatively. *)
let match_in_prefix ~bits ~plen (m : Key.fmatch) =
  match m with
  | Key.M_exact v ->
    plen <= B.width v
    && B.equal (B.slice bits ~off:0 ~len:plen) (B.slice v ~off:0 ~len:plen)
  | Key.M_lpm (v, pl) ->
    let l = min pl plen in
    l = 0 || B.equal (B.slice bits ~off:0 ~len:l) (B.slice v ~off:0 ~len:l)
  | Key.M_ternary _ | Key.M_any -> true

let entry_pinned tr (e : entry) =
  List.exists
    (fun (idx, bits, plen) ->
      match List.nth_opt e.matches idx with
      | Some m -> match_in_prefix ~bits ~plen m
      | None -> false)
    tr.tr_pins

(* Evict the least recently used unpinned resolution; false = every
   resident resolution is pinned, the caller skips promotion. *)
let tier_evict tr =
  let ring = tr.tr_ring in
  let rec seek r =
    if r == ring then false
    else if r.r_pinned then seek r.r_prev
    else begin
      ring_unlink r;
      Hashtbl.remove tr.tr_hot r.r_key;
      tr.tr_count <- tr.tr_count - 1;
      tr.tr_evictions <- tr.tr_evictions + 1;
      true
    end
  in
  seek ring.r_prev

(* Install a freshly resolved (key, fentry) on the hot tier. The caller
   owns the miss accounting; [key] must be an independent copy (never a
   scratch-buffer alias). *)
let tier_promote tr key fe =
  if tr.tr_capacity > 0 then begin
    if tr.tr_count >= tr.tr_capacity && not (tier_evict tr) then
      tr.tr_pin_blocked <- tr.tr_pin_blocked + 1
    else begin
      let rec r =
        {
          r_key = key;
          r_fe = fe;
          r_pinned = entry_pinned tr fe.fe_src;
          r_prev = r;
          r_next = r;
        }
      in
      Hashtbl.replace tr.tr_hot key r;
      ring_push_mru tr.tr_ring r;
      tr.tr_count <- tr.tr_count + 1;
      tr.tr_promotions <- tr.tr_promotions + 1
    end
  end

let tier_miss t tr =
  tr.tr_misses <- tr.tr_misses + 1;
  t.tier_missed <- true

(* --- virtualization policy -------------------------------------------- *)

let virtualize t ~capacity =
  (match t.tier with
  | Some tr ->
    tr.tr_capacity <- max 0 capacity;
    (* Shrinking below residency evicts down to the new capacity. *)
    while tr.tr_count > tr.tr_capacity && tier_evict tr do
      ()
    done
  | None ->
    t.tier <-
      Some
        {
          tr_capacity = max 0 capacity;
          tr_hot = Hashtbl.create 64;
          tr_ring = new_ring ();
          tr_count = 0;
          tr_pins = [];
          tr_hits = 0;
          tr_misses = 0;
          tr_promotions = 0;
          tr_evictions = 0;
          tr_pin_blocked = 0;
        });
  (* Structural change for derived paths: bump like a content
     mutation. *)
  t.generation <- t.generation + 1

let devirtualize t =
  if t.tier <> None then begin
    t.tier <- None;
    t.generation <- t.generation + 1
  end

(* Pin a prefix on key field [idx]: resolutions whose source entry falls
   inside it are never evicted. Applies to future promotions and to the
   current residents. *)
let pin t ~idx ~bits ~plen =
  match t.tier with
  | None -> false
  | Some tr ->
    tr.tr_pins <- (idx, bits, plen) :: tr.tr_pins;
    Hashtbl.iter
      (fun _ r ->
        if (not r.r_pinned) && entry_pinned tr r.r_fe.fe_src then
          r.r_pinned <- true)
      tr.tr_hot;
    true

type tier_stats = {
  ts_capacity : int;
  ts_resident : int;
  ts_pinned : int;
  ts_hits : int;
  ts_misses : int;
  ts_promotions : int;
  ts_evictions : int;
  ts_pin_blocked : int;
}

let tier_stats t =
  match t.tier with
  | None -> None
  | Some tr ->
    let pinned = Hashtbl.fold (fun _ r n -> if r.r_pinned then n + 1 else n) tr.tr_hot 0 in
    Some
      {
        ts_capacity = tr.tr_capacity;
        ts_resident = tr.tr_count;
        ts_pinned = pinned;
        ts_hits = tr.tr_hits;
        ts_misses = tr.tr_misses;
        ts_promotions = tr.tr_promotions;
        ts_evictions = tr.tr_evictions;
        ts_pin_blocked = tr.tr_pin_blocked;
      }

(* --- content mutation -------------------------------------------------- *)

let touch_contents t =
  t.generation <- t.generation + 1;
  match t.tier with Some tr -> tier_flush tr | None -> ()

let insert t ~priority ~matches ~action ~args =
  let entry = { matches; action; args; priority; hits = 0 } in
  (match t.index with
  | I_exact tbl -> Hashtbl.replace tbl (exact_key_of_matches matches) entry
  | I_lpm trie ->
    let prefix, plen = lpm_parts t.e_fields matches in
    Net.Lpm.insert trie ~prefix:(lpm_raw prefix) ~plen entry
  | I_tcam tcam ->
    let value, mask = tcam_parts t.e_fields matches in
    Tcam.insert tcam ~value ~mask ~priority entry
  | I_hash -> ());
  (* Replace an identical-key entry to mirror index semantics — except in
     hash tables, where multiple identical wildcard entries are exactly
     how ECMP members are expressed. *)
  let others =
    match t.index with
    | I_hash -> t.entries
    | _ ->
      List.filter
        (fun e -> not (List.for_all2 Key.fmatch_equal e.matches matches))
        t.entries
  in
  t.entries <- entry :: others;
  touch_contents t

(* Bulk content load: one generation bump and hashtable dedup instead of
   the per-insert scan over the entry list — the 1M-route FIB loader's
   path, O(n) where repeated [insert] is O(n²). Rows apply in order;
   later rows replace earlier ones (and existing entries) on the same
   match key, except under hash indexes where identical wildcard rows
   are legitimate ECMP members and everything is kept. *)
let bulk_insert t rows =
  let mk (priority, matches, action, args) =
    { matches; action; args; priority; hits = 0 }
  in
  (match t.index with
  | I_hash ->
    let fresh = List.rev_map mk rows in
    (* [fresh] is newest-first; keep it that way ahead of the old set. *)
    t.entries <- List.rev_append (List.rev fresh) t.entries
  | _ ->
    let keyof matches = String.concat "|" (List.map Key.fmatch_to_string matches) in
    let arr = Array.of_list rows in
    let n = Array.length arr in
    let seen = Hashtbl.create ((2 * n) + 1) in
    let keep = Array.make n true in
    for i = n - 1 downto 0 do
      let _, matches, _, _ = arr.(i) in
      let k = keyof matches in
      if Hashtbl.mem seen k then keep.(i) <- false else Hashtbl.add seen k ()
    done;
    let fresh = ref [] in
    for i = 0 to n - 1 do
      if keep.(i) then fresh := mk arr.(i) :: !fresh
    done;
    List.iter
      (fun e ->
        match t.index with
        | I_exact tbl -> Hashtbl.replace tbl (exact_key_of_matches e.matches) e
        | I_lpm trie ->
          let prefix, plen = lpm_parts t.e_fields e.matches in
          Net.Lpm.insert trie ~prefix:(lpm_raw prefix) ~plen e
        | I_tcam tcam ->
          let value, mask = tcam_parts t.e_fields e.matches in
          Tcam.insert tcam ~value ~mask ~priority:e.priority e
        | I_hash -> ())
      !fresh;
    let kept_old =
      List.filter (fun e -> not (Hashtbl.mem seen (keyof e.matches))) t.entries
    in
    t.entries <- List.rev_append (List.rev !fresh) kept_old);
  touch_contents t

(* The authoritative LPM index, when this table resolves through one —
   consumers like [Fabric.Fibgen] and the control-plane service consult
   the same trie the data path escalates to on tier misses. *)
let lpm_index t = match t.index with I_lpm trie -> Some trie | _ -> None

let remove t matches =
  let existed =
    List.exists (fun e -> List.for_all2 Key.fmatch_equal e.matches matches) t.entries
  in
  if existed then begin
    t.entries <-
      List.filter
        (fun e -> not (List.for_all2 Key.fmatch_equal e.matches matches))
        t.entries;
    (match t.index with
    | I_exact tbl -> Hashtbl.remove tbl (exact_key_of_matches matches)
    | I_lpm trie ->
      let prefix, plen = lpm_parts t.e_fields matches in
      ignore (Net.Lpm.remove trie ~prefix:(lpm_raw prefix) ~plen)
    | I_tcam tcam ->
      let value, mask = tcam_parts t.e_fields matches in
      ignore (Tcam.remove tcam ~value ~mask)
    | I_hash -> ());
    touch_contents t
  end;
  existed

let reset t =
  t.entries <- [];
  (match t.index with
  | I_exact tbl -> Hashtbl.reset tbl
  | I_lpm trie -> Net.Lpm.clear trie
  | I_tcam tcam -> Tcam.clear tcam
  | I_hash -> ());
  touch_contents t

let set_default t action args =
  t.default <- Some (action, args);
  touch_contents t

(* --- boxed resolution -------------------------------------------------- *)

(* Entries whose non-hash fields match the key; the hash index's
   candidate set. *)
let hash_candidates t values =
  List.filter
    (fun e ->
      List.for_all2
        (fun (f, m) v ->
          match f.Key.kf_kind with
          | Key.Hash -> true
          | _ -> Key.fmatch_matches m v)
        (List.combine t.e_fields e.matches)
        values)
    (List.rev t.entries)

let flow_hash t values =
  let material =
    List.concat_map
      (fun (f, v) ->
        match f.Key.kf_kind with
        | Key.Hash -> [ B.to_raw_string v ]
        | _ -> [])
      (List.combine t.e_fields values)
  in
  Prelude.Crc32.digest_int (String.concat "" material)

(* Authoritative probe of the physical index; no counters, no tier. *)
let find t values =
  match t.index with
  | I_exact tbl -> Hashtbl.find_opt tbl (exact_key_of_values values)
  | I_lpm trie -> Net.Lpm.lookup trie (lpm_raw (lpm_key t.e_fields values))
  | I_tcam tcam -> Tcam.lookup tcam (B.concat_list values)
  | I_hash -> (
    match hash_candidates t values with
    | [] -> None
    | candidates ->
      let n = List.length candidates in
      Some (List.nth candidates (flow_hash t values mod n)))

let count_hit t (e : entry) =
  t.hits <- t.hits + 1;
  e.hits <- e.hits + 1

let fentry_of (e : entry) =
  {
    fe_src = e;
    fe_tag = (match int_of_string_opt e.action with Some tag -> tag | None -> 0);
    fe_args = Array.of_list (List.map B.to_int e.args);
  }

(* The boxed lookup used by the interpreter: counters,
   tier probe/escalation, then the index. Byte-for-byte the same hot key
   as the flat path's rendered scratch, so device twins on different
   paths evolve identical tier state. *)
let lookup t values =
  t.lookups <- t.lookups + 1;
  t.tier_missed <- false;
  match t.tier with
  | None ->
    let result = find t values in
    (match result with Some e -> count_hit t e | None -> ());
    result
  | Some tr -> (
    let key = exact_key_of_values values in
    match Hashtbl.find_opt tr.tr_hot key with
    | Some r ->
      tier_touch tr r;
      let e = r.r_fe.fe_src in
      count_hit t e;
      Some e
    | None -> (
      tier_miss t tr;
      match find t values with
      | Some e ->
        count_hit t e;
        tier_promote tr key (fentry_of e);
        Some e
      | None -> None))

(* --- flat view construction (control path; allocation is fine) -------- *)

(* Values are manipulated as unboxed ints masked to their width; 56 keeps
   every intermediate inside OCaml's 63-bit int (the same bound as the
   flat compiler's [max_int_width]). *)
let max_narrow_width = 56

let ffm_of_vm v m =
  let kw = B.width v in
  if kw <= max_narrow_width then FF_narrow { fv = B.to_int v; fmask = B.to_int m }
  else FF_wide { vpat = pattern_of v; mpat = pattern_of m; fw = kw }

let ffm_of_fmatch (m : Key.fmatch) kw =
  match m with
  | Key.M_any -> FF_any
  | Key.M_exact v -> ffm_of_vm v (B.ones kw)
  | Key.M_lpm (v, plen) -> ffm_of_vm v (B.init kw (fun i -> i < plen))
  | Key.M_ternary (v, mask) -> ffm_of_vm v mask

let build_view t =
  let def_present, def_tag =
    match t.default with
    | Some (a, _) ->
      (true, match int_of_string_opt a with Some x -> x | None -> 0)
    | None -> (false, 0)
  in
  let fields = t.e_fields in
  let kind =
    match t.index with
    | I_exact h ->
      let cache = Hashtbl.create (max 16 (Hashtbl.length h)) in
      Hashtbl.iter (fun k e -> Hashtbl.replace cache k (fentry_of e)) h;
      V_exact cache
    | I_lpm _ ->
      (* The trie picks the longest matching prefix; an ordered scan over
         prefix-length-descending entries is equivalent. Deduplicate on
         the trie key (exact bits + prefix) keeping the newest entry,
         since [Net.Lpm.insert] replaces. *)
      let seen = Hashtbl.create 16 in
      let items = ref [] in
      List.iter
        (fun (e : entry) ->
          let dk = Buffer.create 32 in
          let eplen = ref 0 in
          List.iter2
            (fun (f : Key.field) m ->
              match (f.Key.kf_kind, m) with
              | Key.Lpm, Key.M_lpm (v, p) ->
                eplen := p;
                Buffer.add_char dk '/';
                Buffer.add_string dk (string_of_int p);
                Buffer.add_char dk ':';
                if p > 0 then Buffer.add_string dk (B.to_raw_string (B.slice v ~off:0 ~len:p))
              | Key.Lpm, Key.M_exact v ->
                eplen := f.Key.kf_width;
                Buffer.add_char dk '/';
                Buffer.add_string dk (string_of_int f.Key.kf_width);
                Buffer.add_char dk ':';
                Buffer.add_string dk (B.to_raw_string v)
              | _, Key.M_exact v ->
                Buffer.add_char dk '=';
                Buffer.add_string dk (B.to_raw_string v)
              | _ -> ())
            fields e.matches;
          let key = Buffer.contents dk in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            let flds =
              Array.of_list
                (List.map2
                   (fun (f : Key.field) m ->
                     match (f.Key.kf_kind, m) with
                     | Key.Lpm, Key.M_exact v -> ffm_of_vm v (B.ones f.Key.kf_width)
                     | _ -> ffm_of_fmatch m f.Key.kf_width)
                   fields e.matches)
            in
            items := (!eplen, { fm_fields = flds; fm_fe = fentry_of e }) :: !items
          end)
        t.entries;
      let arr = Array.of_list (List.rev !items) in
      (* Stable: among equal prefix lengths the prefixes are disjoint, so
         relative order is irrelevant, but keep newest-first anyway. *)
      Array.stable_sort (fun (a, _) (b, _) -> compare (b : int) a) arr;
      V_scan (Array.map snd arr)
    | I_tcam tc ->
      (* [Tcam.iter] yields entries in match (priority) order with the
         value/mask concatenated over the whole key; split per field. *)
      let widths = Array.of_list (List.map (fun f -> f.Key.kf_width) fields) in
      let items = ref [] in
      Tcam.iter tc (fun ~value ~mask ~priority:_ (e : entry) ->
          let flds = Array.make (Array.length widths) FF_any in
          let off = ref 0 in
          Array.iteri
            (fun i kw ->
              let v = B.slice value ~off:!off ~len:kw in
              let m = B.slice mask ~off:!off ~len:kw in
              off := !off + kw;
              flds.(i) <- ffm_of_vm v m)
            widths;
          items := { fm_fields = flds; fm_fe = fentry_of e } :: !items);
      V_scan (Array.of_list (List.rev !items))
    | I_hash ->
      (* Candidate filtering over insertion-ordered entries, hash-kind
         fields wildcarded — the flat twin of [hash_candidates]. *)
      let items =
        List.rev_map
          (fun (e : entry) ->
            let flds =
              Array.of_list
                (List.map2
                   (fun (f : Key.field) m ->
                     if f.Key.kf_kind = Key.Hash then FF_any
                     else ffm_of_fmatch m f.Key.kf_width)
                   fields e.matches)
            in
            { fm_fields = flds; fm_fe = fentry_of e })
          t.entries
      in
      let arr = Array.of_list items in
      V_hash (arr, Array.make (max 1 (Array.length arr)) 0)
  in
  { v_gen = t.generation; v_kind = kind; v_def_present = def_present; v_def_tag = def_tag }

(* The current flat view, rebuilt iff the generation moved: one load and
   one int compare on the flat fast path's steady state. *)
let view t =
  match t.view with
  | Some v when v.v_gen = t.generation -> v
  | _ ->
    let v = build_view t in
    t.view <- Some v;
    v

(* --- flat probes (per-packet; allocation-free) ------------------------ *)

(* Masked comparison of packet bits at [off] against left-aligned
   patterns, in 24-bit chunks. *)
let rec wide_masked_eq buf ~off vpat mpat ~k ~w =
  if k >= w then true
  else begin
    let cw = if w - k < 24 then w - k else 24 in
    let pv = Bf.get_int vpat ~off:k ~width:cw in
    let pm = Bf.get_int mpat ~off:k ~width:cw in
    let x = Bf.get_int buf ~off:(off + k) ~width:cw in
    if (x lxor pv) land pm <> 0 then false
    else wide_masked_eq buf ~off vpat mpat ~k:(k + cw) ~w
  end

(* [vals]/[offs] are the caller's per-field key scratch: narrow values as
   ints, wide fields as absolute bit offsets into [buf]. *)
let rec fment_matches ~vals ~offs ~buf flds i =
  if i >= Array.length flds then true
  else
    match flds.(i) with
    | FF_any -> fment_matches ~vals ~offs ~buf flds (i + 1)
    | FF_narrow { fv; fmask } ->
      if (vals.(i) lxor fv) land fmask = 0 then
        fment_matches ~vals ~offs ~buf flds (i + 1)
      else false
    | FF_wide { vpat; mpat; fw } ->
      if wide_masked_eq buf ~off:offs.(i) vpat mpat ~k:0 ~w:fw then
        fment_matches ~vals ~offs ~buf flds (i + 1)
      else false

let rec scan_ments ~vals ~offs ~buf (ments : fment array) i =
  if i >= Array.length ments then -1
  else if fment_matches ~vals ~offs ~buf ments.(i).fm_fields 0 then i
  else scan_ments ~vals ~offs ~buf ments (i + 1)

let rec collect_cands ~vals ~offs ~buf (ments : fment array) (cand : int array) i n =
  if i >= Array.length ments then n
  else if fment_matches ~vals ~offs ~buf ments.(i).fm_fields 0 then begin
    cand.(n) <- i;
    collect_cands ~vals ~offs ~buf ments cand (i + 1) (n + 1)
  end
  else collect_cands ~vals ~offs ~buf ments cand (i + 1) n

(* Hot-tier probe for the flat path: raises [Not_found] when cold (the
   flat caller counts the miss, resolves via the view, and promotes).
   [key] may alias a scratch buffer — only [tier_promote] stores keys. *)
let hot_find tr key : resolution = Hashtbl.find tr.tr_hot key
