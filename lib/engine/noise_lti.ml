type contribution = {
  source_name : string;
  transfer : Cx.t;
  psd_at_output : float;
}

type point = {
  freq : float;
  total_psd : float;
  contributions : contribution array;
}

let point_of ~freq ~(lambda : Cvec.t) sources =
  let contributions =
    List.map
      (fun (name, rows, psd) ->
        let tf =
          List.fold_left
            (fun (acc : Cx.t) (row, v) ->
              Cx.mk (acc.re +. (v *. lambda.re.(row)))
                (acc.im +. (v *. lambda.im.(row))))
            Cx.zero rows
        in
        { source_name = name; transfer = tf; psd_at_output = Cx.abs2 tf *. psd })
      sources
  in
  let contributions = Array.of_list contributions in
  Array.sort (fun a b -> compare b.psd_at_output a.psd_at_output) contributions;
  let total = Array.fold_left (fun acc c -> acc +. c.psd_at_output) 0.0 contributions in
  { freq; total_psd = total; contributions }

let analyze ?x_op ?temp circuit ~output ~freqs =
  let ac = Ac.prepare ?x_op circuit in
  let x = Ac.operating_point ac in
  let physical = Stamp.noise_sources circuit ~x ?temp () in
  Array.map
    (fun freq ->
      let lambda = Ac.adjoint ac ~freq ~output in
      let sources =
        List.map
          (fun (ns : Stamp.noise_source) ->
            (ns.Stamp.ns_name, ns.Stamp.ns_rows, ns.Stamp.ns_psd freq))
          physical
      in
      point_of ~freq ~lambda sources)
    freqs

let analyze_sources ?x_op circuit ~output ~freq ~sources =
  let ac = Ac.prepare ?x_op circuit in
  let lambda = Ac.adjoint ac ~freq ~output in
  point_of ~freq ~lambda sources
