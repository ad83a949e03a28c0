let map_slots ~jobs n f =
  let jobs = max 1 (min (min jobs n) (Domain.recommended_domain_count ())) in
  if jobs = 1 then Array.init n f
  else begin
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    let chunk = max 1 (n / (jobs * 8)) in
    let rec work () =
      let start = Atomic.fetch_and_add cursor chunk in
      if start < n then begin
        for i = start to min n (start + chunk) - 1 do
          results.(i) <- Some (f i)
        done;
        work ()
      end
    in
    (* a failing worker drains the cursor so the others stop claiming
       chunks; its exception travels back as a value so every domain is
       joined before anything is re-raised *)
    let guarded () =
      match work () with
      | () -> None
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Atomic.set cursor n;
          Some (e, bt)
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn guarded) in
    let mine = guarded () in
    let failures = mine :: List.map Domain.join domains in
    List.iter
      (function Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
      failures;
    Array.map (function Some v -> v | None -> assert false) results
  end
