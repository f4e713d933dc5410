module type KEY = sig
  type t

  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

module Make (K : KEY) = struct
  (* A leaf keeps its bindings in the live prefix [0, n) of two arrays with
     [leaf_cap] slots, so an insert or remove shifts entries in place; the
     one slot beyond [max_leaf] holds the overflowing binding for the moment
     before a split.  Slots at [n] and beyond are stale and never read.
     Internal nodes change only on splits and stay exact-size. *)
  let max_leaf = 32
  let leaf_cap = max_leaf + 1
  let max_sep = 32 (* max separators per internal node; children = max_sep+1 *)

  type leaf = {
    mutable lkeys : K.t array;  (* [||] until the first insert, then [leaf_cap] slots *)
    lvals : int array;
    mutable n : int;  (* live bindings *)
    mutable next : leaf option;
  }

  type node = Leaf of leaf | Internal of internal

  and internal = {
    mutable seps : K.t array;  (* child i holds keys < seps.(i); child i+1 >= seps.(i) *)
    mutable children : node array;
  }

  type t = { mutable root : node; mutable count : int; mutable version : int }

  let create () =
    let root = { lkeys = [||]; lvals = Array.make leaf_cap 0; n = 0; next = None } in
    { root = Leaf root; count = 0; version = 0 }

  let length t = t.count

  let rec node_height = function
    | Leaf _ -> 1
    | Internal i -> 1 + node_height i.children.(0)

  let height t = node_height t.root

  (* First index in [keys.(0 .. n-1)] whose key is >= k; n if none. *)
  let lower_bound keys n k =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if K.compare keys.(mid) k < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Child slot for key [k] in an internal node: first separator > k ...
     with our convention (left child < sep <= right), the child index is the
     number of separators <= k. *)
  let child_slot seps k =
    let lo = ref 0 and hi = ref (Array.length seps) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if K.compare seps.(mid) k <= 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  let array_insert a i x =
    let n = Array.length a in
    let b = Array.make (n + 1) x in
    Array.blit a 0 b 0 i;
    Array.blit a i b (i + 1) (n - i);
    b

  let sub a lo len = Array.sub a lo len

  (* What an insert did below a node; only a split allocates. *)
  type outcome = Inserted | Replaced of int | Split of K.t * node

  let split_leaf l =
    let n = l.n in
    let mid = n / 2 in
    let rn = n - mid in
    let rkeys = Array.make leaf_cap l.lkeys.(mid) and rvals = Array.make leaf_cap 0 in
    Array.blit l.lkeys mid rkeys 0 rn;
    Array.blit l.lvals mid rvals 0 rn;
    let right = { lkeys = rkeys; lvals = rvals; n = rn; next = l.next } in
    l.n <- mid;
    l.next <- Some right;
    Split (rkeys.(0), Leaf right)

  let rec insert_node node k v =
    match node with
    | Leaf l ->
      let n = l.n in
      let i = lower_bound l.lkeys n k in
      if i < n && K.compare l.lkeys.(i) k = 0 then begin
        let old = l.lvals.(i) in
        l.lvals.(i) <- v;
        Replaced old
      end
      else begin
        if Array.length l.lkeys = 0 then l.lkeys <- Array.make leaf_cap k;
        Array.blit l.lkeys i l.lkeys (i + 1) (n - i);
        Array.blit l.lvals i l.lvals (i + 1) (n - i);
        l.lkeys.(i) <- k;
        l.lvals.(i) <- v;
        l.n <- n + 1;
        if n + 1 <= max_leaf then Inserted else split_leaf l
      end
    | Internal nd ->
      let slot = child_slot nd.seps k in
      (match insert_node nd.children.(slot) k v with
      | (Inserted | Replaced _) as r -> r
      | Split (sep, right) ->
        nd.seps <- array_insert nd.seps slot sep;
        nd.children <- array_insert nd.children (slot + 1) right;
        let ns = Array.length nd.seps in
        if ns <= max_sep then Inserted
        else begin
          (* Promote the middle separator. *)
          let mid = ns / 2 in
          let promoted = nd.seps.(mid) in
          let right_node =
            {
              seps = sub nd.seps (mid + 1) (ns - mid - 1);
              children = sub nd.children (mid + 1) (ns - mid);
            }
          in
          nd.seps <- sub nd.seps 0 mid;
          nd.children <- sub nd.children 0 (mid + 1);
          Split (promoted, Internal right_node)
        end)

  let insert t k v =
    t.version <- t.version + 1;
    match insert_node t.root k v with
    | Replaced old -> Some old
    | Inserted ->
      t.count <- t.count + 1;
      None
    | Split (sep, right) ->
      t.root <- Internal { seps = [| sep |]; children = [| t.root; right |] };
      t.count <- t.count + 1;
      None

  let rec leaf_for node k =
    match node with
    | Leaf l -> l
    | Internal nd -> leaf_for nd.children.(child_slot nd.seps k) k

  let find t k =
    let l = leaf_for t.root k in
    let i = lower_bound l.lkeys l.n k in
    if i < l.n && K.compare l.lkeys.(i) k = 0 then Some l.lvals.(i) else None

  let remove t k =
    let l = leaf_for t.root k in
    let n = l.n in
    let i = lower_bound l.lkeys n k in
    if i < n && K.compare l.lkeys.(i) k = 0 then begin
      let old = l.lvals.(i) in
      Array.blit l.lkeys (i + 1) l.lkeys i (n - i - 1);
      Array.blit l.lvals (i + 1) l.lvals i (n - i - 1);
      l.n <- n - 1;
      t.count <- t.count - 1;
      t.version <- t.version + 1;
      Some old
    end
    else None

  let rec leftmost_leaf = function
    | Leaf l -> l
    | Internal nd -> leftmost_leaf nd.children.(0)

  let rec rightmost_leaf = function
    | Leaf l -> l
    | Internal nd -> rightmost_leaf nd.children.(Array.length nd.children - 1)

  let min_binding t =
    (* skip leaves that lazy deletion emptied out *)
    let rec first l =
      if l.n > 0 then Some (l.lkeys.(0), l.lvals.(0))
      else match l.next with Some nxt -> first nxt | None -> None
    in
    first (leftmost_leaf t.root)

  let max_binding t =
    (* The rightmost non-empty leaf is not directly addressable; walk from
       the rightmost and fall back to a scan only in the lazy-deletion edge
       case. *)
    let l = rightmost_leaf t.root in
    let n = l.n in
    if n > 0 then Some (l.lkeys.(n - 1), l.lvals.(n - 1))
    else begin
      let best = ref None in
      let rec walk leaf =
        let n = leaf.n in
        if n > 0 then best := Some (leaf.lkeys.(n - 1), leaf.lvals.(n - 1));
        match leaf.next with Some nxt -> walk nxt | None -> ()
      in
      walk (leftmost_leaf t.root);
      !best
    end

  let fold_range t ~lo ~hi ~init ~f =
    let rec loop acc l i =
      if i < l.n then begin
        let k = l.lkeys.(i) in
        if K.compare k hi > 0 then acc else loop (f acc k l.lvals.(i)) l (i + 1)
      end
      else match l.next with Some nxt -> loop acc nxt 0 | None -> acc
    in
    let l = leaf_for t.root lo in
    loop init l (lower_bound l.lkeys l.n lo)

  let iter t f =
    let rec loop l =
      for i = 0 to l.n - 1 do
        f l.lkeys.(i) l.lvals.(i)
      done;
      match l.next with Some nxt -> loop nxt | None -> ()
    in
    loop (leftmost_leaf t.root)

  (* The cursor's position is slot [idx] of [at]; [idx = exhausted] once the
     scan has run off the chain or past [hi]. *)
  let exhausted = -1

  type cursor = {
    tree : t;
    lo : K.t;
    hi : K.t;
    mutable at : leaf;
    mutable idx : int;
    mutable last : K.t option;  (* last returned key, for re-seek *)
    mutable seen_version : int;
  }

  (* Move the cursor to the first live slot at or after slot [i] of [l]. *)
  let rec settle c l i =
    if i < l.n then begin
      c.at <- l;
      c.idx <- i
    end
    else match l.next with Some nxt -> settle c nxt 0 | None -> c.idx <- exhausted

  let seek c k =
    let l = leaf_for c.tree.root k in
    settle c l (lower_bound l.lkeys l.n k)

  let cursor t ~lo ~hi =
    let l = leaf_for t.root lo in
    let c = { tree = t; lo; hi; at = l; idx = exhausted; last = None; seen_version = t.version } in
    settle c l (lower_bound l.lkeys l.n lo);
    c

  (* The tree changed under the cursor: restart from just after the last
     returned key (or from lo if nothing was returned yet). *)
  let reseek c =
    c.seen_version <- c.tree.version;
    match c.last with
    | None -> seek c c.lo
    | Some k ->
      seek c k;
      if c.idx <> exhausted && K.compare c.at.lkeys.(c.idx) k = 0 then settle c c.at (c.idx + 1)

  let cursor_next c =
    if c.seen_version <> c.tree.version then reseek c;
    if c.idx = exhausted then None
    else begin
      let l = c.at and i = c.idx in
      let k = l.lkeys.(i) and v = l.lvals.(i) in
      if K.compare k c.hi > 0 then begin
        c.idx <- exhausted;
        None
      end
      else begin
        c.last <- Some k;
        settle c l (i + 1);
        Some (k, v)
      end
    end

  let check_invariants t =
    let fail fmt = Format.kasprintf failwith fmt in
    (* 1. uniform depth + per-node checks with key-range bounds *)
    let rec walk node lo hi =
      (* every key k in [node] must satisfy lo <= k < hi (either bound may
         be absent) *)
      let in_bounds k =
        (match lo with Some b -> K.compare b k <= 0 | None -> true)
        && match hi with Some b -> K.compare k b < 0 | None -> true
      in
      match node with
      | Leaf l ->
        if l.n < 0 || l.n > max_leaf then fail "leaf holds %d bindings" l.n;
        if Array.length l.lvals <> leaf_cap then fail "leaf value array lost its capacity";
        if Array.length l.lkeys <> leaf_cap && not (Array.length l.lkeys = 0 && l.n = 0) then
          fail "leaf key array lost its capacity";
        for i = 0 to l.n - 1 do
          let k = l.lkeys.(i) in
          if not (in_bounds k) then fail "leaf key out of separator bounds";
          if i > 0 && K.compare l.lkeys.(i - 1) k >= 0 then fail "leaf keys not sorted"
        done;
        1, l.n
      | Internal nd ->
        let ns = Array.length nd.seps in
        if Array.length nd.children <> ns + 1 then fail "internal arity mismatch";
        if ns = 0 then fail "internal node with no separator";
        Array.iteri
          (fun i k ->
            if not (in_bounds k) then fail "separator out of bounds";
            if i > 0 && K.compare nd.seps.(i - 1) k >= 0 then fail "separators not sorted")
          nd.seps;
        let depth = ref 0 and total = ref 0 in
        Array.iteri
          (fun i child ->
            let clo = if i = 0 then lo else Some nd.seps.(i - 1) in
            let chi = if i = ns then hi else Some nd.seps.(i) in
            let d, n = walk child clo chi in
            total := !total + n;
            if !depth = 0 then depth := d
            else if d <> !depth then fail "leaves at different depths")
          nd.children;
        !depth + 1, !total
    in
    let _, total = walk t.root None None in
    if total <> t.count then fail "count mismatch: tree says %d, found %d" t.count total;
    (* 2. the leaf chain visits every key in ascending order *)
    let chained = ref 0 in
    let prev = ref None in
    let rec follow l =
      for i = 0 to l.n - 1 do
        let k = l.lkeys.(i) in
        (match !prev with
        | Some p when K.compare p k >= 0 -> fail "leaf chain out of order"
        | Some _ | None -> ());
        prev := Some k;
        incr chained
      done;
      match l.next with Some nxt -> follow nxt | None -> ()
    in
    follow (leftmost_leaf t.root);
    if !chained <> t.count then
      fail "leaf chain misses keys: chained %d, count %d" !chained t.count
end

module Int_key = struct
  type t = int

  let compare = Int.compare
  let pp = Format.pp_print_int
end

module Str_key = struct
  type t = string

  let compare = String.compare
  let pp ppf s = Format.fprintf ppf "%S" s
end

module Int_tree = Make (Int_key)
module Str_tree = Make (Str_key)
