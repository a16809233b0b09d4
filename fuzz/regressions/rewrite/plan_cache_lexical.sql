SELECT COUNT(*) FROM orders o -- 17 and 4096
WHERE o.o_totalprice > 1e5 AND o.o_totalprice <> .5 AND o.o_orderstatus != 'it''s' AND o.o_orderstatus = ''